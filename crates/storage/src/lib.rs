//! # orchestra-storage
//!
//! The distributed, replicated, **versioned** relational storage layer of
//! Section IV of the paper.
//!
//! ## The storage scheme (Figure 3)
//!
//! Four kinds of per-node state cooperate to serve any relation at any
//! epoch:
//!
//! * **Relation coordinators** — contacted at `hash(relation, epoch)`;
//!   they hold the list of index-page descriptors (page ID plus the
//!   tuple-ID hash range the page covers) for that version of the
//!   relation.  See [`coordinator`].
//! * **Index nodes** — contacted at the *midpoint* of a page's tuple-key
//!   hash range (so the page lives where most of its tuples live); they
//!   hold the page contents: the list of tuple IDs belonging to the page
//!   in that version.  See [`page`].
//! * **Data storage nodes** — contacted at `hash(tuple key)`; they hold
//!   the full tuples.  Here a tuple version's body is stored once, in its
//!   relation's [`VersionLog`], at the slot its page entry lists, and a
//!   data storage node holds one bit per version ([`SlotSet`]).
//! * **Inverse nodes** — map a tuple's position back to the page that
//!   currently lists it, used when an update must rewrite the affected
//!   page.
//!
//! All of this state is replicated with the substrate's neighbour scheme
//! (⌊r/2⌋ clockwise + counter-clockwise), so the failure of a node is
//! transparently absorbed by its neighbours.
//!
//! ## Versioning
//!
//! The store is log-structured: tuples are never overwritten.  Publishing
//! a batch of updates creates a new *epoch*; the new version of each
//! touched relation shares every unmodified page with its predecessor and
//! gets fresh page versions only where tuples were inserted, updated or
//! deleted — the i-node/CFS-inspired structural sharing the paper
//! describes.  Queries always run against a specific epoch and therefore
//! see a consistent snapshot; stale data can never be returned because a
//! tuple version is only reachable if its ID is listed in an index page of
//! the requested version.
//!
//! ## Entry points
//!
//! [`DistributedStorage`] owns the per-node stores and implements
//! publication ([`DistributedStorage::publish`]) and Algorithm 1 retrieval
//! ([`DistributedStorage::retrieve`]).  A [`StorageView`] — the data under
//! one routing table with one set of nodes unreadable — holds the
//! partition scans used by the query engine and the failover lookups
//! that consult replicas when the primary owner of some state is gone.

pub mod coordinator;
pub mod delta;
pub mod distributed;
pub mod node_store;
pub mod page;
pub mod replication;
pub mod update;
pub mod version_log;

pub use coordinator::{CoordinatorKey, RelationVersion};
pub use delta::{PartitionDelta, RelationDelta};
pub use distributed::{
    DistributedStorage, PartitionScan, RetrievalResult, StorageConfig, StorageView,
};
pub use node_store::{NodeStore, SlotSet};
pub use page::{IndexPage, PageDescriptor, PageId};
pub use replication::{anti_entropy, ReplicationReport};
pub use update::{Update, UpdateBatch};
pub use version_log::VersionLog;
