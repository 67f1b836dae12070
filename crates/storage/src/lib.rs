//! # orchestra-storage
//!
//! The distributed, replicated, **versioned** relational storage layer of
//! Section IV of the paper.
//!
//! ## The storage scheme (Figure 3)
//!
//! Three kinds of state, each placed on the nodes around its ring
//! position, cooperate to serve any relation at any epoch:
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
//!   the full tuples.
//!
//! Whatever it is, an item is stored once, in its relation's
//! [`RelationLog`] ([`version_log`]): a list of immutable [`Run`]s, one
//! per publication, each holding the record, page versions and tuple
//! versions the publication created.  An item is numbered among its
//! relation's items of its [`Kind`] — its slot — and a node that holds it
//! holds one bit, which the log keeps beside its runs in that node's
//! [`SlotSet`] of the kind ([`node_store`]): a descriptor lists its page's
//! slot and a page entry its tuple version's.  Who holds what is read with
//! [`DistributedStorage::held`].  A run's tuple versions are one immutable
//! columnar [`TupleRun`] ([`run`]): a slot names a row of its run, a scan
//! hands out [`StoredRow`]s and the engine gathers them into a batch a
//! column at a time ([`gather`]), and a row is built as a
//! [`orchestra_common::Tuple`] only where a caller asks for one
//! (retrieval, the owning [`DistributedStorage::scan_partition`], a
//! caller of [`StoredRow::tuple`]).  Adaptive statistics gather a
//! [`RelationDelta`]'s rows into a batch too, and fold it a column at a
//! time.
//!
//! The paper also places *inverse nodes*, which map a tuple's position
//! back to the page that currently lists it, for rewriting that page on
//! an update.  None are kept here: publication rewrites a partition's page
//! from the previous version's, which it finds through the previous
//! coordinator record's descriptors, and drops the superseded version by
//! its key as it merges the page with the batch's changes.
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
//! [`DistributedStorage`] owns every relation's log and implements
//! publication ([`DistributedStorage::publish`], which commits a batch
//! whole or not at all) and Algorithm 1 retrieval
//! ([`DistributedStorage::retrieve`]).  A [`StorageView`] — the data under
//! one routing table with one set of nodes unreadable — holds the
//! partition scans used by the query engine and the failover lookups
//! that consult replicas when the primary owner of some state is gone.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod coordinator;
pub mod delta;
pub mod distributed;
pub mod node_store;
pub mod page;
pub mod replication;
pub mod run;
pub mod update;
pub mod version_log;

pub use coordinator::{CoordinatorKey, RelationVersion};
pub use delta::RelationDelta;
pub use distributed::{
    DistributedStorage, PartitionScan, RetrievalResult, StorageConfig, StorageView,
};
pub use node_store::SlotSet;
pub use page::{IndexPage, PageDescriptor, PageEntries, PageId};
pub use replication::{anti_entropy, ReplicationReport};
pub use run::{gather, StoredRow, TupleRun};
pub use update::{Update, UpdateBatch};
pub use version_log::{Kind, RelationLog, Run};
