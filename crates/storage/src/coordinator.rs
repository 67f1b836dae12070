//! Relation coordinators.
//!
//! "When requesting a given relation at a given epoch, the storage system
//! hashes these values to get the address of a relation coordinator, who
//! has a list of the pages in the relation at that epoch" (Section IV).
//! The coordinator record is tiny — just page descriptors — and is itself
//! replicated through the substrate like any other piece of state, so
//! there is no single point of failure.

use crate::page::PageDescriptor;
use orchestra_common::{Epoch, Key160};

/// Addressing key of a relation coordinator: the relation name and the
/// epoch of the version being requested.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CoordinatorKey {
    /// Relation name.
    pub relation: String,
    /// Version (epoch) of the relation.
    pub epoch: Epoch,
}

impl CoordinatorKey {
    /// Build a coordinator key.
    pub fn new(relation: impl Into<String>, epoch: Epoch) -> CoordinatorKey {
        CoordinatorKey {
            relation: relation.into(),
            epoch,
        }
    }

    /// The ring position of the coordinator: `hash(relation, epoch)`.
    pub fn hash(&self) -> Key160 {
        Key160::hash_parts(&[self.relation.as_bytes(), &self.epoch.0.to_be_bytes()])
    }
}

/// The coordinator's record for one version of one relation: the
/// descriptors of every page making up that version.
///
/// Unmodified pages are shared structurally with earlier versions — their
/// descriptors simply point at page versions created in earlier epochs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RelationVersion {
    /// The relation/epoch this record describes.
    pub key: CoordinatorKey,
    /// Descriptors of all pages in this version, ordered by partition.
    pub pages: Vec<PageDescriptor>,
}

impl RelationVersion {
    /// Build a version record, ordering pages by partition for
    /// deterministic iteration.
    pub fn new(key: CoordinatorKey, mut pages: Vec<PageDescriptor>) -> RelationVersion {
        pages.sort_by_key(|p| p.id.partition);
        RelationVersion { key, pages }
    }

    /// Total number of tuple IDs across all pages (planner cardinality).
    pub fn tuple_count(&self) -> usize {
        self.pages.iter().map(|p| p.tuple_count).sum()
    }

    /// Approximate wire size of the record when shipped to a requester.
    pub fn serialized_size(&self) -> usize {
        32 + self
            .pages
            .iter()
            .map(PageDescriptor::serialized_size)
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{partition_range, IndexPage, PageId};
    use orchestra_common::{PageEntry, TupleId, Value};

    #[test]
    fn coordinator_key_hash_varies_with_epoch_and_name() {
        let a = CoordinatorKey::new("R", Epoch(0)).hash();
        let b = CoordinatorKey::new("R", Epoch(1)).hash();
        let c = CoordinatorKey::new("S", Epoch(0)).hash();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, CoordinatorKey::new("R", Epoch(0)).hash());
    }

    #[test]
    fn relation_version_orders_pages_and_counts_tuples() {
        let mk = |part: u32, n: usize| {
            IndexPage::new(
                PageId::new("R", Epoch(0), part),
                partition_range(part, 4),
                (0..n)
                    .map(|i| {
                        let id = TupleId::new(vec![Value::Int(i as i64)], Epoch(0));
                        PageEntry::hashed(id, i as u32)
                    })
                    .collect(),
            )
            .descriptor()
        };
        let version = RelationVersion::new(
            CoordinatorKey::new("R", Epoch(0)),
            vec![mk(3, 5), mk(0, 2), mk(1, 1)],
        );
        let parts: Vec<u32> = version.pages.iter().map(|p| p.id.partition).collect();
        assert_eq!(parts, vec![0, 1, 3]);
        assert_eq!(version.tuple_count(), 8);
        assert!(version.serialized_size() > 0);
    }
}
