//! A relation's version log: the body of every tuple version the relation
//! has published, numbered.
//!
//! Publication numbers the versions it creates densely within their
//! relation — a version's *slot* — and appends their bodies here, once.
//! The store keeps one log per relation
//! ([`crate::DistributedStorage::version_log`]); a node that holds a
//! version holds one bit, the slot's, in its [`crate::NodeStore`], and an
//! index-page entry carries the slot ([`orchestra_common::PageEntry`]).
//! Reading the tuple an entry lists is therefore a bit test and an index
//! into the log, and replicating a version is setting a bit.
//!
//! ## One run per publication, in ring order
//!
//! A publication of a relation appends one *run*: the versions it created,
//! sorted by the ring position of their keys.  Placement is a property of
//! an arc of the ring, so what one routing entry places from one run is a
//! contiguous range of slots, and anti-entropy compares two nodes'
//! holdings of an arc a word of bits at a time
//! ([`crate::replication::anti_entropy`]).  A key a publication writes
//! twice is one version with one slot, holding the later body.
//!
//! Slots are never reused or renumbered: a version dropped by a future
//! retention pass would leave a hole, which [`VersionLog::tuple`] already
//! answers with `None`.
//!
//! The bodies are the store's own detached copies, and they are laid out
//! in the order publication made them, not in slot order: partition by
//! partition and, within one, in batch order — for keys generated in
//! order, the order in which a scan reads a page's entries.

use orchestra_common::{Key160, OrchestraError, Result, Tuple};
use std::ops::Range;

/// The tuple versions one relation has published, by slot.
#[derive(Clone, Debug, Default)]
pub struct VersionLog {
    /// The bodies, by slot.
    tuples: Vec<Tuple>,
    /// The ring position of each body's key, by slot; ascending within a
    /// run.
    positions: Vec<Key160>,
    /// The first slot of every run, ascending.
    runs: Vec<u32>,
}

impl VersionLog {
    /// How many slots have been numbered.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Has the relation published no version yet?
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The body of the version at `slot`, if the log has one there.
    pub fn tuple(&self, slot: u32) -> Option<&Tuple> {
        self.tuples.get(slot as usize)
    }

    /// The ring position of the key of the version at `slot`.
    pub fn position(&self, slot: u32) -> Option<Key160> {
        self.positions.get(slot as usize).copied()
    }

    /// Append one publication's versions, `(position, body)` in ascending
    /// position, as a run, and return the run's slots.  Fails, appending
    /// nothing, when the slots would not fit in a `u32`.
    pub(crate) fn append_run(
        &mut self,
        versions: impl ExactSizeIterator<Item = (Key160, Tuple)>,
    ) -> Result<Range<u32>> {
        let numbered = |n: usize| {
            u32::try_from(n).map_err(|_| {
                OrchestraError::StorageInvalid(format!(
                    "a relation's version log holds at most {} versions",
                    u32::MAX
                ))
            })
        };
        let start = numbered(self.len())?;
        let end = numbered(self.len() + versions.len())?;
        if start == end {
            return Ok(start..end);
        }
        self.runs.push(start);
        self.tuples.reserve(versions.len());
        self.positions.reserve(versions.len());
        for (position, tuple) in versions {
            let first = self.positions.len() == start as usize;
            debug_assert!(
                first || self.positions.last() <= Some(&position),
                "run out of order"
            );
            self.positions.push(position);
            self.tuples.push(tuple);
        }
        Ok(start..end)
    }

    /// Every run, as its first slot and its versions' positions
    /// (ascending).
    pub(crate) fn runs(&self) -> impl Iterator<Item = (u32, &[Key160])> + '_ {
        let ends = self.runs.iter().skip(1).copied();
        let ends = ends.chain(std::iter::once(self.positions.len() as u32));
        self.runs
            .iter()
            .zip(ends)
            .map(|(&start, end)| (start, &self.positions[start as usize..end as usize]))
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
        assert_eq!(log.append_run(first.clone().into_iter()).unwrap(), 0..30);
        // A publication that creates nothing appends no run.
        assert_eq!(log.append_run(std::iter::empty()).unwrap(), 30..30);
        let second = sorted_run(100..105);
        assert_eq!(log.append_run(second.clone().into_iter()).unwrap(), 30..35);
        assert_eq!(log.len(), 35);

        for (slot, (position, tuple)) in first.iter().chain(&second).enumerate() {
            assert_eq!(log.tuple(slot as u32), Some(tuple));
            assert_eq!(log.position(slot as u32), Some(*position));
        }
        assert_eq!(log.tuple(35), None);
        assert_eq!(log.position(35), None);

        let runs: Vec<(u32, usize)> = log.runs().map(|(start, p)| (start, p.len())).collect();
        assert_eq!(runs, [(0, 30), (30, 5)]);
        assert!(log.runs().all(|(_, positions)| positions.is_sorted()));
    }
}
