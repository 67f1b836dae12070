//! A relation's logs: everything the relation has published, numbered.
//!
//! A relation publishes three kinds of item ([`Kind`]), and keeps one log
//! of each ([`RelationLogs`]): its coordinator records, one per
//! publication; its index-page versions, one per partition a publication
//! touched; and its tuple versions, one per key a publication wrote.  An
//! item is stored once, in its log, with the ring position it is placed
//! at, under the number the log gives it — its *slot*.  A node that holds
//! the item holds one bit, the slot's, in its [`crate::NodeStore`]; a page
//! descriptor carries its page's slot ([`crate::PageDescriptor`]) and a
//! page entry its tuple version's ([`orchestra_common::PageEntry`]).
//! Reading an item is therefore a bit test and an index into the log, and
//! replicating one is setting a bit.  The store keeps the logs
//! ([`crate::DistributedStorage::version_log`],
//! [`crate::DistributedStorage::page_log`],
//! [`crate::DistributedStorage::record_log`]).
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
//! The tuple bodies are the store's own detached copies, and they are laid
//! out in the order publication made them, not in slot order: partition by
//! partition and, within one, in batch order — for keys generated in
//! order, the order in which a scan reads a page's entries.

use crate::coordinator::RelationVersion;
use crate::page::IndexPage;
use orchestra_common::{Epoch, Key160, OrchestraError, Result, Tuple};
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
    /// Every kind, in the order a node store keeps them.
    pub const ALL: [Kind; 3] = [Kind::Record, Kind::Page, Kind::Tuple];
}

/// Items one relation has published, by slot, each with the ring position
/// it is placed at.
#[derive(Clone, Debug)]
pub struct Log<T> {
    /// The items, by slot.
    items: Vec<T>,
    pub(crate) placed: Placed,
}

/// Where a log's items are placed, whatever they are.
#[derive(Clone, Debug, Default)]
pub(crate) struct Placed {
    /// Each item's ring position, by slot; ascending within a run.
    positions: Vec<Key160>,
    /// The first slot of every run, ascending.
    runs: Vec<u32>,
}

/// A relation's tuple versions, by slot.
pub type VersionLog = Log<Tuple>;

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

    /// Make room for `additional` more items, so that a run of them
    /// reallocates the log at most once however large it has grown.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.items.reserve(additional);
        self.placed.positions.reserve(additional);
    }

    /// Append `item`, placed at `position`, and return its slot: the first
    /// of a new run when `opens_run`, else the next of the last run, whose
    /// positions it must not precede.  Fails, appending nothing, when the
    /// slot would not fit in a `u32`.
    pub(crate) fn push(&mut self, position: Key160, item: T, opens_run: bool) -> Result<u32> {
        let slot = u32::try_from(self.len()).map_err(|_| {
            OrchestraError::StorageInvalid(format!(
                "a relation's log holds at most {} items",
                u32::MAX
            ))
        })?;
        let placed = &mut self.placed;
        if opens_run {
            placed.runs.push(slot);
        }
        debug_assert!(
            opens_run || placed.positions.last() <= Some(&position),
            "run out of order"
        );
        placed.positions.push(position);
        self.items.push(item);
        Ok(slot)
    }
}

impl Placed {
    /// How many slots have been numbered.
    pub(crate) fn len(&self) -> usize {
        self.positions.len()
    }

    /// Every run, as its first slot and its items' positions (ascending).
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u32, &[Key160])> + '_ {
        let ends = self.runs.iter().skip(1).copied();
        let ends = ends.chain(std::iter::once(self.positions.len() as u32));
        (self.runs.iter().zip(ends))
            .map(|(&start, end)| (start, &self.positions[start as usize..end as usize]))
    }
}

/// Everything one relation has published: one log per [`Kind`].
#[derive(Clone, Debug, Default)]
pub(crate) struct RelationLogs {
    pub(crate) records: Log<Arc<RelationVersion>>,
    pub(crate) pages: Log<Arc<IndexPage>>,
    pub(crate) versions: VersionLog,
}

impl RelationLogs {
    /// Where the items of the log of `kind` are placed.
    pub(crate) fn placed(&self, kind: Kind) -> &Placed {
        match kind {
            Kind::Record => &self.records.placed,
            Kind::Page => &self.pages.placed,
            Kind::Tuple => &self.versions.placed,
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
    use orchestra_common::Value;

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
            for (i, (position, tuple)) in run.iter().enumerate() {
                let slot = log.push(*position, tuple.clone(), i == 0).unwrap();
                assert_eq!(slot as usize, log.len() - 1);
            }
        }
        assert_eq!(log.len(), 35);

        for (slot, (position, tuple)) in first.iter().chain(&second).enumerate() {
            assert_eq!(log.get(slot as u32), Some(tuple));
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
