//! A relation's logs: everything the relation has published, numbered.
//!
//! A relation publishes three kinds of item ([`Kind`]), and keeps one log
//! of each: its coordinator records, one per publication; its index-page
//! versions, one per partition a publication touched; and its tuple
//! versions, one per key a publication wrote.  An item is stored once, in
//! its log, with the ring position it is placed at, under the number the
//! log gives it — its *slot*.  A node that holds the item holds one bit,
//! the slot's, and the log keeps those bits beside its items, one
//! [`crate::SlotSet`] per node; a page descriptor carries its page's slot
//! ([`crate::PageDescriptor`]) and a page entry its tuple version's
//! ([`orchestra_common::PageEntry`]).  Reading an item is therefore a bit
//! test and an index into the log, and replicating one is setting a bit.
//! The store keeps the logs ([`crate::DistributedStorage::version_log`],
//! [`crate::DistributedStorage::page_log`],
//! [`crate::DistributedStorage::record_log`]) and answers who holds what
//! ([`crate::DistributedStorage::held`]).
//!
//! ## One run per publication, in ring order
//!
//! A publication of a relation appends one *run* to each log: the tuple
//! versions it created, sorted by the ring position of their keys; the
//! page versions it created, in partition order — partition ranges ascend
//! round the ring, so their midpoints, where the pages are placed, ascend
//! too; and its coordinator record, a run of one.  Placement is a property
//! of an arc of the ring, so what one routing entry places from one run is
//! a contiguous range of slots, and anti-entropy compares two nodes'
//! holdings of an arc a word of bits at a time
//! ([`crate::replication::anti_entropy`]).  A key a publication writes
//! twice is one version with one slot, holding the later body.  Records
//! are appended in publication order, so the record log, searched by
//! epoch, is the relation's version history.
//!
//! Slots are never reused or renumbered: an item dropped by a future
//! retention pass would leave a hole, which [`Log::get`] already answers
//! with `None`.
//!
//! A publication's tuple versions are one [`TupleRun`]: columns, not
//! rows, whose strings are the store's own copies, made once per distinct
//! string of the run.  The run's rows are laid out in the order
//! publication made them, not in slot order — partition by partition and,
//! within one, in batch order: for keys generated in order, the order in
//! which a scan reads a page's entries — and the run maps each of its
//! slots to its row.  So the version log keeps one item per *run*, and
//! [`VersionLog::get`] finds a slot's run by its first slot and reads the
//! row there ([`StoredRow`]).

use crate::coordinator::RelationVersion;
use crate::node_store::Holders;
use crate::page::IndexPage;
use crate::run::{StoredRow, TupleRun};
use orchestra_common::{Epoch, Key160};
use std::ops::Range;
use std::sync::Arc;

/// The three kinds of item a relation publishes, each numbered in a log of
/// its own.
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

/// Items one relation has published, by slot, each with the ring position
/// it is placed at and the nodes that hold it.
#[derive(Clone, Debug)]
pub struct Log<T> {
    /// The items, by slot.
    items: Vec<T>,
    pub(crate) placed: Placed,
}

/// Where a log's items are placed, and who holds them, whatever they are.
#[derive(Clone, Debug, Default)]
pub(crate) struct Placed {
    /// Each item's ring position, by slot; ascending within a run.
    positions: Vec<Key160>,
    /// The first slot of every run, ascending.
    runs: Vec<u32>,
    /// Which nodes hold which slots.
    pub(crate) holders: Holders,
}

/// A relation's tuple versions: one [`TupleRun`] per publication, and
/// per slot the ring position it is placed at and the nodes that hold it.
/// A clone shares the runs.
#[derive(Clone, Debug, Default)]
pub struct VersionLog {
    /// The runs, one per run of [`Placed`], in the same order.
    runs: Vec<Arc<TupleRun>>,
    pub(crate) placed: Placed,
}

impl<T> Default for Log<T> {
    fn default() -> Self {
        Log {
            items: Vec::new(),
            placed: Placed::default(),
        }
    }
}

impl<T> Log<T> {
    /// How many slots have been numbered.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Has nothing been published to the log yet?
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The item at `slot`, if the log has one there.
    pub fn get(&self, slot: u32) -> Option<&T> {
        self.items.get(slot as usize)
    }

    /// The ring position the item at `slot` is placed at.
    pub fn position(&self, slot: u32) -> Option<Key160> {
        self.placed.positions.get(slot as usize).copied()
    }

    /// Every item, by slot.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Append `item`, placed at `position`, and return its slot: the first
    /// of a new run when `opens_run`, else the next of the last run.
    pub(crate) fn push(&mut self, position: Key160, item: T, opens_run: bool) -> u32 {
        self.items.push(item);
        self.placed.push(position, opens_run)
    }
}

impl VersionLog {
    /// How many slots have been numbered.
    pub fn len(&self) -> usize {
        self.placed.len()
    }

    /// Has nothing been published to the log yet?
    pub fn is_empty(&self) -> bool {
        self.placed.len() == 0
    }

    /// The version at `slot`, if the log has one there: the row its run
    /// keeps for it.
    pub fn get(&self, slot: u32) -> Option<StoredRow<'_>> {
        let starts = &self.placed.runs;
        let at = starts
            .partition_point(|&first| first <= slot)
            .checked_sub(1)?;
        let run = self.runs.get(at)?;
        let row = run.row_of(slot - starts[at])?;
        Some(StoredRow::new(run, row))
    }

    /// The ring position the version at `slot` is placed at.
    pub fn position(&self, slot: u32) -> Option<Key160> {
        self.placed.positions.get(slot as usize).copied()
    }

    /// Every run, in publication order.
    pub fn runs(&self) -> &[Arc<TupleRun>] {
        &self.runs
    }

    /// Append `run`, whose slots are placed at `positions` (ascending, one
    /// per slot), and return its slots; a run of no slot is not kept.  The
    /// caller has made sure they fit in a `u32` (publication checks every
    /// log's room before its first write).
    pub(crate) fn append(
        &mut self,
        positions: impl ExactSizeIterator<Item = Key160>,
        run: TupleRun,
    ) -> Range<u32> {
        let start = self.len() as u32;
        if positions.len() == 0 {
            return start..start;
        }
        self.placed.positions.reserve_exact(positions.len());
        for (i, position) in positions.enumerate() {
            self.placed.push(position, i == 0);
        }
        self.runs.push(Arc::new(run));
        start..self.len() as u32
    }
}

impl Placed {
    /// How many slots have been numbered.
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// Number the next slot, placed at `position`, and return it: the
    /// first of a new run when `opens_run`, else the next of the last run,
    /// whose positions it must not precede.
    fn push(&mut self, position: Key160, opens_run: bool) -> u32 {
        debug_assert!(u32::try_from(self.len()).is_ok(), "log full");
        let slot = self.len() as u32;
        if opens_run {
            self.runs.push(slot);
        }
        debug_assert!(
            opens_run || self.positions.last() <= Some(&position),
            "run out of order"
        );
        self.positions.push(position);
        slot
    }

    /// Every run, as its first slot and its items' positions (ascending).
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u32, &[Key160])> + '_ {
        let ends = self.runs.iter().skip(1).copied();
        let ends = ends.chain(std::iter::once(self.positions.len() as u32));
        (self.runs.iter().zip(ends))
            .map(|(&start, end)| (start, &self.positions[start as usize..end as usize]))
    }
}

/// Everything one relation has published, and who holds it: one log per
/// [`Kind`].  The store keeps it behind an `Arc`, copied on first write.
#[derive(Clone, Debug, Default)]
pub(crate) struct RelationLogs {
    pub(crate) records: Log<Arc<RelationVersion>>,
    pub(crate) pages: Log<Arc<IndexPage>>,
    pub(crate) versions: VersionLog,
}

impl RelationLogs {
    /// Where the items of the log of `kind` are placed, and who holds them.
    pub(crate) fn placed(&self, kind: Kind) -> &Placed {
        match kind {
            Kind::Record => &self.records.placed,
            Kind::Page => &self.pages.placed,
            Kind::Tuple => &self.versions.placed,
        }
    }

    /// [`Self::placed`], for setting holder bits.
    pub(crate) fn placed_mut(&mut self, kind: Kind) -> &mut Placed {
        match kind {
            Kind::Record => &mut self.records.placed,
            Kind::Page => &mut self.pages.placed,
            Kind::Tuple => &mut self.versions.placed,
        }
    }

    /// The slot of the record of the relation's version visible at
    /// `epoch`: the last one published at or before it.  Records are
    /// appended in publication order, so this is a binary search.
    pub(crate) fn record_at(&self, epoch: Epoch) -> Option<u32> {
        let after = (self.records.items()).partition_point(|r| r.key.epoch <= epoch);
        // The log's slots fit in a `u32`.
        after.checked_sub(1).map(|slot| slot as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{Tuple, Value};

    fn version(k: i64) -> (Key160, Tuple) {
        let tuple = Tuple::new(vec![Value::Int(k), Value::str(format!("v{k}"))]);
        (tuple.hash_key(1), tuple)
    }

    fn sorted_run(keys: impl IntoIterator<Item = i64>) -> Vec<(Key160, Tuple)> {
        let mut run: Vec<_> = keys.into_iter().map(version).collect();
        run.sort_by_key(|(position, _)| *position);
        run
    }

    #[test]
    fn runs_are_numbered_densely_and_read_back_by_slot() {
        let mut log = VersionLog::default();
        assert!(log.is_empty());
        let first = sorted_run(0..30);
        let second = sorted_run(100..105);
        for run in [&first, &second] {
            // Rows in reverse slot order: a slot finds its row by the
            // run's index, not by its own number.
            let bodies: Vec<&[Value]> = run.iter().rev().map(|(_, t)| t.values()).collect();
            let row_of = (0..run.len() as u32).rev().collect();
            let before = log.len() as u32;
            let slots = log.append(run.iter().map(|(p, _)| *p), TupleRun::new(&bodies, row_of));
            assert_eq!(slots, before..log.len() as u32);
        }
        assert_eq!((log.len(), log.runs().len()), (35, 2));

        for (slot, (position, tuple)) in first.iter().chain(&second).enumerate() {
            assert_eq!(
                log.get(slot as u32).map(|row| row.tuple()).as_ref(),
                Some(tuple)
            );
            assert_eq!(log.position(slot as u32), Some(*position));
        }
        assert_eq!(log.get(35), None);
        assert_eq!(log.position(35), None);

        let runs: Vec<(u32, usize)> = (log.placed.runs())
            .map(|(start, p)| (start, p.len()))
            .collect();
        assert_eq!(runs, [(0, 30), (30, 5)]);
        assert!(log.placed.runs().all(|(_, p)| p.is_sorted()));
    }
}
