//! A relation's log: everything the relation has published, one run per
//! publication.
//!
//! A relation publishes three kinds of item ([`Kind`]): its coordinator
//! records, one per publication; its index-page versions, one per
//! partition a publication touched; and its tuple versions, one per key a
//! publication wrote.  Each kind is numbered densely, on its own: an item's
//! number among the relation's items of its kind is its *slot*.  A node
//! that holds an item holds one bit, the slot's, and the log keeps those
//! bits, one [`crate::SlotSet`] per node and kind; a page descriptor
//! carries its page's slot ([`crate::PageDescriptor`]) and a page entry
//! its tuple version's ([`orchestra_common::PageEntry`]).  Reading an item
//! is therefore a bit test and a search of the log's runs, and replicating
//! one is setting a bit.  The store keeps one log per relation
//! ([`crate::DistributedStorage::log`]) and answers who holds what
//! ([`crate::DistributedStorage::held`]).
//!
//! ## A publication is one run
//!
//! A publication of a relation appends one immutable [`Run`] to its log,
//! behind an `Arc`, and never changes it afterwards.  The run holds the
//! publication's coordinator record; the page versions it created, in
//! partition order — partition ranges ascend round the ring, so their
//! midpoints, where the pages are placed, ascend too; and the tuple
//! versions it created, sorted by the ring position of their keys.  Each
//! item sits beside the position it is placed at, and the run knows the
//! first slot of each kind, so a record is found by epoch and a page or a
//! tuple version by a binary search of the runs' first slots of its kind.
//! A delete-only publication creates no tuple version: its run holds
//! none, and numbers none.  Placement is a property of an arc of the
//! ring, so what one routing entry places from one run is a contiguous
//! range of slots, and anti-entropy compares two nodes' holdings of an arc
//! a word of bits at a time ([`crate::replication::anti_entropy`]).  A key
//! a publication writes twice is one version with one slot, holding the
//! later body.  Runs are appended in publication order, so the records,
//! searched by epoch, are the relation's version history.
//!
//! Holder bits are not part of a run: repair and a lost disk change them
//! after the run is appended, so they are one flat set per node and kind
//! beside the runs.  A clone of the log shares every run; writing to it
//! copies the run pointers and the holder words, never an item or a
//! position.
//!
//! Slots are never reused or renumbered: a retention pass that drops a
//! run, or items of one, leaves a hole that reads answer with `None`.
//!
//! A publication's tuple versions are one [`TupleRun`]: columns, not
//! rows, whose strings are the store's own copies, made once per distinct
//! string of the run.  The run's rows are laid out in the order
//! publication made them, not in slot order — partition by partition and,
//! within one, in batch order: for keys generated in order, the order in
//! which a scan reads a page's entries — and the run maps each of its
//! slots to its row ([`RelationLog::version`] hands out a [`StoredRow`]).

use crate::coordinator::RelationVersion;
use crate::node_store::Holders;
use crate::page::IndexPage;
use crate::run::{StoredRow, TupleRun};
use orchestra_common::{Epoch, Key160};
use std::sync::Arc;

/// The three kinds of item a relation publishes, each numbered on its own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Coordinator records ([`RelationVersion`]).
    Record,
    /// Index-page versions ([`IndexPage`]).
    Page,
    /// Tuple versions.
    Tuple,
}

impl Kind {
    /// Every kind.
    pub const ALL: [Kind; 3] = [Kind::Record, Kind::Page, Kind::Tuple];
}

/// What one publication of a relation created, each item with the ring
/// position it is placed at.  Immutable once appended to its log.
#[derive(Debug)]
pub struct Run {
    /// The slot of the run's first item of each kind, by [`Kind`].
    pub(crate) first: [u32; 3],
    /// The coordinator record, and where it is placed: the hash of its key.
    pub(crate) record: (Key160, Arc<RelationVersion>),
    /// The page versions, in partition order.
    pub(crate) pages: Vec<Arc<IndexPage>>,
    /// Where each page is placed: the midpoint of its range, ascending.
    pub(crate) page_positions: Vec<Key160>,
    /// The tuple versions' bodies.
    pub(crate) versions: TupleRun,
    /// Where each tuple version is placed: the hash of its key, ascending.
    pub(crate) version_positions: Vec<Key160>,
}

impl Run {
    /// The slot of the run's first item of `kind`, and the positions of
    /// its items of `kind`, one per slot, ascending.
    pub(crate) fn placed(&self, kind: Kind) -> (u32, &[Key160]) {
        let positions = match kind {
            Kind::Record => std::slice::from_ref(&self.record.0),
            Kind::Page => &self.page_positions,
            Kind::Tuple => &self.version_positions,
        };
        (self.first[kind as usize], positions)
    }
}

/// Everything one relation has published, one [`Run`] per publication, and
/// which nodes hold which items.  The store keeps it behind an `Arc`,
/// copied on first write.
#[derive(Clone, Debug, Default)]
pub struct RelationLog {
    /// The runs, in publication order.
    runs: Vec<Arc<Run>>,
    /// Which nodes hold which slots, by [`Kind`].
    holders: [Holders; 3],
}

impl RelationLog {
    /// Every run, in publication order.
    pub fn runs(&self) -> &[Arc<Run>] {
        &self.runs
    }

    /// How many slots of `kind` have been numbered.
    pub fn len(&self, kind: Kind) -> usize {
        let last = self.runs.last().map(|run| run.placed(kind));
        last.map_or(0, |(first, positions)| first as usize + positions.len())
    }

    /// The run numbering `slot` of `kind`, if any, with the slot's offset in
    /// it: the last run whose first slot of the kind is at or below it.
    fn find(&self, kind: Kind, slot: u32) -> Option<(&Run, usize)> {
        let after = (self.runs).partition_point(|run| run.first[kind as usize] <= slot);
        let run = self.runs.get(after.checked_sub(1)?)?;
        Some((run, (slot - run.first[kind as usize]) as usize))
    }

    /// The coordinator record at `slot`: the record of the publication
    /// `slot` counts from the first.
    pub fn record(&self, slot: u32) -> Option<&Arc<RelationVersion>> {
        Some(&self.runs.get(slot as usize)?.record.1)
    }

    /// The page version at `slot`.
    pub fn page(&self, slot: u32) -> Option<&Arc<IndexPage>> {
        let (run, at) = self.find(Kind::Page, slot)?;
        run.pages.get(at)
    }

    /// The tuple version at `slot`: the row its run keeps for it.
    pub fn version(&self, slot: u32) -> Option<StoredRow<'_>> {
        let (run, at) = self.find(Kind::Tuple, slot)?;
        let row = run.versions.row_of(at as u32)?;
        Some(StoredRow::new(&run.versions, row))
    }

    /// The ring position the item of `kind` at `slot` is placed at.
    pub fn position(&self, kind: Kind, slot: u32) -> Option<Key160> {
        let (run, at) = self.find(kind, slot)?;
        run.placed(kind).1.get(at).copied()
    }

    /// Every coordinator record, by slot: the version history.
    pub fn records(&self) -> impl Iterator<Item = &Arc<RelationVersion>> {
        self.runs.iter().map(|run| &run.record.1)
    }

    /// Every page version, by slot.
    pub fn pages(&self) -> impl Iterator<Item = &Arc<IndexPage>> {
        self.runs.iter().flat_map(|run| &run.pages)
    }

    /// Which nodes hold which items of `kind`.
    pub(crate) fn holders(&self, kind: Kind) -> &Holders {
        &self.holders[kind as usize]
    }

    /// [`Self::holders`], for setting or dropping bits.
    pub(crate) fn holders_mut(&mut self, kind: Kind) -> &mut Holders {
        &mut self.holders[kind as usize]
    }

    /// Append `run`, whose first slots of every kind are the log's lengths.
    pub(crate) fn push(&mut self, run: Run) {
        debug_assert!(
            Kind::ALL.into_iter().all(|kind| {
                let (first, positions) = run.placed(kind);
                first as usize == self.len(kind) && positions.is_sorted()
            }),
            "a run must continue every kind's slots, in position order"
        );
        self.runs.push(Arc::new(run));
    }

    /// The slot of the record of the relation's version visible at
    /// `epoch`: the last one published at or before it.  Runs are appended
    /// in publication order, so this is a binary search.
    pub(crate) fn record_at(&self, epoch: Epoch) -> Option<u32> {
        let after = (self.runs).partition_point(|run| run.record.1.key.epoch <= epoch);
        // The log's slots fit in a `u32`.
        after.checked_sub(1).map(|slot| slot as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coordinator::CoordinatorKey;
    use crate::page::PageId;
    use orchestra_common::{KeyRange, Tuple, Value};

    fn version(k: i64) -> (Key160, Tuple) {
        let tuple = Tuple::new(vec![Value::Int(k), Value::str(format!("v{k}"))]);
        (tuple.hash_key(1), tuple)
    }

    fn sorted_run(keys: impl IntoIterator<Item = i64>) -> Vec<(Key160, Tuple)> {
        let mut run: Vec<_> = keys.into_iter().map(version).collect();
        run.sort_by_key(|(position, _)| *position);
        run
    }

    /// Append to `log` a publication at `epoch` of one page and the tuple
    /// versions `tuples`, sorted by position.  Rows are stored in reverse
    /// slot order: a slot finds its row by the run's index, not by its own
    /// number.
    fn publish(log: &mut RelationLog, epoch: u64, tuples: &[(Key160, Tuple)]) {
        let first = Kind::ALL.map(|kind| log.len(kind) as u32);
        let key = CoordinatorKey::new("R", Epoch(epoch));
        let page = IndexPage::new(PageId::new("R", Epoch(epoch), 0), KeyRange::full(), vec![]);
        let bodies: Vec<&[Value]> = tuples.iter().rev().map(|(_, t)| t.values()).collect();
        log.push(Run {
            first,
            record: (key.hash(), Arc::new(RelationVersion::new(key, vec![]))),
            page_positions: vec![page.range.midpoint()],
            pages: vec![Arc::new(page)],
            versions: TupleRun::new(&bodies, (0..tuples.len() as u32).rev().collect()),
            version_positions: tuples.iter().map(|(p, _)| *p).collect(),
        });
    }

    #[test]
    fn runs_are_numbered_densely_and_read_back_by_slot() {
        let mut log = RelationLog::default();
        assert_eq!(Kind::ALL.map(|kind| log.len(kind)), [0; 3]);
        let (first, second) = (sorted_run(0..30), sorted_run(100..105));
        publish(&mut log, 0, &first);
        publish(&mut log, 3, &second);
        assert_eq!(log.runs().len(), 2);
        assert_eq!(Kind::ALL.map(|kind| log.len(kind)), [2, 2, 35]);

        for (slot, (position, tuple)) in first.iter().chain(&second).enumerate() {
            let slot = slot as u32;
            assert_eq!(
                log.version(slot).map(|row| row.tuple()).as_ref(),
                Some(tuple)
            );
            assert_eq!(log.position(Kind::Tuple, slot), Some(*position));
        }
        assert_eq!(log.version(35), None);
        assert_eq!(log.position(Kind::Tuple, 35), None);
        let epochs: Vec<Epoch> = log.records().map(|r| r.key.epoch).collect();
        assert_eq!(epochs, [Epoch(0), Epoch(3)]);
        assert_eq!(
            (log.record_at(Epoch(2)), log.record_at(Epoch(3))),
            (Some(0), Some(1))
        );
        assert!(log.pages().map(|p| p.id.epoch).eq([Epoch(0), Epoch(3)]));
        assert_eq!(log.page(1).map(|p| p.id.epoch), Some(Epoch(3)));
        assert_eq!(log.page(2), None);

        let runs: Vec<(u32, usize)> = (log.runs().iter())
            .map(|run| run.placed(Kind::Tuple))
            .map(|(start, p)| (start, p.len()))
            .collect();
        assert_eq!(runs, [(0, 30), (30, 5)]);
    }

    #[test]
    fn a_delete_only_run_numbers_no_tuple_version() {
        // A run with no tuple versions between two that have some: its
        // first tuple slot is the next run's, and every slot, the log's
        // length and that shared first slot read exactly.
        let mut log = RelationLog::default();
        let (first, third) = (sorted_run(0..7), sorted_run(50..54));
        publish(&mut log, 0, &first);
        publish(&mut log, 1, &[]);
        publish(&mut log, 2, &third);
        let starts = log.runs().iter().map(|run| run.placed(Kind::Tuple));
        let starts: Vec<(u32, usize)> = starts.map(|(s, p)| (s, p.len())).collect();
        assert_eq!(starts, [(0, 7), (7, 0), (7, 4)]);
        assert_eq!(log.len(Kind::Tuple), 11);
        for (slot, (position, tuple)) in (0..).zip(first.iter().chain(&third)) {
            assert_eq!(
                log.version(slot).map(|row| row.tuple()).as_ref(),
                Some(tuple)
            );
            assert_eq!(log.position(Kind::Tuple, slot), Some(*position));
        }
        assert_eq!(
            log.version(7).map(|row| row.tuple()),
            Some(third[0].1.clone())
        );
        assert_eq!(log.version(11), None);
        assert_eq!(log.position(Kind::Tuple, 11), None);
        assert_eq!(log.page(1).map(|p| p.id.epoch), Some(Epoch(1)));

        // As the last run, it answers nothing past the log's end.
        let mut log = RelationLog::default();
        publish(&mut log, 0, &first);
        publish(&mut log, 1, &[]);
        assert_eq!(log.len(Kind::Tuple), 7);
        assert_eq!((log.version(7), log.position(Kind::Tuple, 7)), (None, None));
        assert!(log.version(6).is_some());
    }
}
