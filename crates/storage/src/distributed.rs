//! The distributed, replicated, versioned store.
//!
//! [`DistributedStorage`] glues the relations' logs of runs
//! ([`crate::version_log`]) to the substrate's routing: every piece of
//! state (coordinator record, index page, tuple version) is written to the
//! node owning its ring position plus that node's replica set, and read
//! back with fail-over — first the owner, then the replicas, then (as a
//! last resort, mirroring the paper's "proactively try to retrieve the
//! missing state from other nearby nodes") any live node.
//!
//! Publication ([`DistributedStorage::publish`]) applies one participant's
//! [`UpdateBatch`] as a new epoch, creating new versions only of the index
//! pages actually touched and sharing all others with the previous
//! version.  Retrieval ([`DistributedStorage::retrieve`]) implements
//! Algorithm 1; [`StorageView::scan_partition_ref`] is the same
//! access path restricted to the ranges owned by one executing node, which
//! is how the query engine's distributed scans consume storage.
//!
//! ## Epochs are physically immutable and stored once
//!
//! What an epoch publishes never changes, so it is built once and
//! *numbered*: a relation's share of it is one immutable run of the
//! relation's log ([`crate::version_log`]) — the new coordinator record,
//! page versions and tuple versions, each under the number of its kind
//! publication gives it (its *slot*) — and each item's owner and replicas
//! set their bit for that slot, which the log keeps beside its runs.  A
//! node holds bits, whatever it holds, so anti-entropy repairs a placement
//! by setting bits, one loop over the logs.  A relation's log, holder bits
//! included, sits behind one `Arc` that is copied on first write, and its
//! runs behind one each, so cloning the whole cluster costs a pointer per
//! relation; a clone that is then published to, repaired or made to forget
//! a node copies the run pointers and the holder bits of the relations it
//! writes to, never an item, and leaves the original exactly as it was.
//!
//! ## A batch commits whole
//!
//! Publication reads before it writes.  For every relation of the batch
//! it first resolves everything that can fail — the relation is
//! registered and its keys complete, the previous record and the previous
//! page of every touched partition have a live holder, each kind of the
//! relation's log has room for the slots the batch adds — and only then
//! builds each relation's run off to the side, sets its holders' bits and
//! appends it, none of which can fail.  A batch that fails leaves the
//! store exactly as it was, and its epoch number free.
//!
//! ## Another routing or failure set is a view, not a copy
//!
//! Every placement-dependent read — coordinator, page and tuple lookups
//! with fail-over, partition and delta scans — is a method of
//! [`StorageView`]: the data under one routing table, with one set of
//! nodes unreadable.  [`DistributedStorage::view`] is the store's own; a
//! query on a stale routing snapshot and a session recovering from a
//! failure narrow it ([`StorageView::with_routing`],
//! [`StorageView::with_failed`]) instead of mutating a copy of the store.
//!
//! ## The read path neither hashes nor copies
//!
//! A tuple key is hashed onto the ring exactly once, by the publication
//! that creates the version; the position is stored beside the tuple ID
//! and the version's slot in the index page
//! ([`orchestra_common::PageEntry`]) and carried into every later page
//! version.  Scans, delta scans and retrieval filter tuples by that cached
//! position, find a holder by testing a node's bit for the slot, and
//! read the tuple at that slot of the log — its run's row, the run found
//! by a binary search of the runs' first slots.  A record is found by
//! epoch in the relation's runs and a page by the slot its descriptor
//! carries, so no ID is built or hashed to find either.  They *borrow* the coordinator record and the page from
//! the logs, and hand out each tuple as a reference to its row
//! ([`StoredRow`]), which the engine gathers into a batch a column at a
//! time ([`crate::run::gather`]); [`DistributedStorage::scan_partition`]
//! and [`DistributedStorage::retrieve`] build rows for callers that want
//! to own them.

use crate::coordinator::{CoordinatorKey, RelationVersion};
use crate::node_store::Holders;
use crate::node_store::SlotSet;
use crate::page::{partition_of, partition_range, IndexPage, PageDescriptor, PageId, PageWriter};
use crate::run::{StoredRow, TupleRun};
use crate::update::{Update, UpdateBatch};
use crate::version_log::{Kind, RelationLog, Run};
use orchestra_common::{
    Epoch, Key160, KeyRange, NodeId, NodeSet, OrchestraError, PageEntry, Relation, Result, Tuple,
    TupleId, Value,
};
use orchestra_substrate::RoutingTable;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

/// Configuration of the storage layer.
#[derive(Clone, Copy, Debug)]
pub struct StorageConfig {
    /// Number of index-page partitions per relation.  The paper uses "a
    /// slightly higher number of entries [than CFS] representing
    /// partitions of the tuple space"; a small multiple of the expected
    /// node count keeps pages co-located with their tuples while bounding
    /// per-page size.
    pub partitions_per_relation: u32,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            partitions_per_relation: 64,
        }
    }
}

/// Result of a partition scan executed on behalf of one node: of stored
/// rows (`PartitionScan<StoredRow>`, what
/// [`StorageView::scan_partition_ref`] returns), of owned tuples, or of
/// signed stored rows (`PartitionScan<(StoredRow, i8)>`, what
/// [`StorageView::delta_partition_ref`] returns).
#[derive(Clone, Debug)]
pub struct PartitionScan<T = Tuple> {
    /// The tuples whose key hashes fall in the requested ranges, in page
    /// order and, within a page, ID order: of the requested version, or,
    /// for a delta scan, those the interval removed (sign `-1`) and added
    /// (`+1`).
    pub tuples: Vec<T>,
    /// Index pages consulted (both versions of every diffed page, for a
    /// delta scan).
    pub pages_read: usize,
    /// Tuple versions fetched.
    pub tuples_read: usize,
    /// Tuple versions that were *not* present in the scanning node's local
    /// store and had to be fetched from a replica (non-zero after
    /// membership changes, zero in steady state thanks to co-location).
    pub remote_lookups: usize,
    /// Bytes fetched from each remote holder, aggregated per source node
    /// — the transfers the simulation must charge to the network.
    pub remote_transfers: Vec<(NodeId, usize)>,
}

impl<T> Default for PartitionScan<T> {
    fn default() -> Self {
        PartitionScan {
            tuples: Vec::new(),
            pages_read: 0,
            tuples_read: 0,
            remote_lookups: 0,
            remote_transfers: Vec::new(),
        }
    }
}

/// Result of a full Algorithm 1 retrieval.
#[derive(Clone, Debug, Default)]
pub struct RetrievalResult {
    /// Matching tuples.
    pub tuples: Vec<Tuple>,
    /// Trace of inter-node messages `(from, to, bytes)` the lookup would
    /// generate, for accounting and for the worked example.
    pub messages: Vec<(NodeId, NodeId, usize)>,
    /// Number of index pages scanned.
    pub pages_scanned: usize,
}

/// The distributed, replicated, versioned storage layer.
///
/// `Clone` is cheap — one pointer per relation; the clone and the
/// original share every relation's log until one of them writes to it,
/// and every run after that.
/// Reading the data under another routing table or failure set needs no
/// clone: it is a [`StorageView`], and a view copies nothing.
#[derive(Clone)]
pub struct DistributedStorage {
    config: StorageConfig,
    routing: RoutingTable,
    /// Every relation's runs, one per publication, and the nodes holding
    /// each item.  Copy-on-write: written through [`Arc::make_mut`] only.
    logs: HashMap<String, Arc<RelationLog>>,
    failed: NodeSet,
    catalog: HashMap<String, Relation>,
    published: u64,
    /// Memoized epoch-interval page diffs (see `delta.rs`) — shared by
    /// every delta consumer so fan-out maintenance derives each changed
    /// relation's delta once per epoch, not once per view.
    pub(crate) delta_memo: crate::delta::DeltaMemo,
}

/// One relation's share of a batch, with everything that publishing it
/// reads from the store resolved, so that writing it cannot fail.
struct Staged<'b> {
    name: &'b str,
    key_len: usize,
    replicated: bool,
    /// The relation's version before the batch, if it has one.
    prev: Option<Arc<RelationVersion>>,
    /// The batch's updates of the relation, each with its index-page
    /// partition and the ring position of its key: by partition and, in
    /// one, in batch order.
    updates: Vec<(u32, &'b Update, Key160)>,
    /// Per partition the updates touch, ascending, the previous version's
    /// page of it, if it has one.
    prev_pages: Vec<Option<Arc<IndexPage>>>,
}

/// A [`DistributedStorage`]'s data seen under one routing table, with one
/// set of nodes whose local state cannot be read: the one place the read
/// paths live.
///
/// A view is `Copy` and copies nothing.  [`DistributedStorage::view`] is
/// the store's own routing and failed set; [`Self::with_routing`] and
/// [`Self::with_failed`] derive another.  A node is readable when it has
/// not failed; a node the view's table lists but nothing was ever written
/// to (a joiner, on a snapshot taken before the store adopted it) holds
/// nothing.  The delta memo is the store's, shared by all its views.
#[derive(Clone, Copy)]
pub struct StorageView<'a> {
    pub(crate) data: &'a DistributedStorage,
    routing: &'a RoutingTable,
    failed: NodeSet,
}

impl DistributedStorage {
    /// Create an empty store over the nodes of `routing`.
    pub fn new(routing: RoutingTable, config: StorageConfig) -> DistributedStorage {
        DistributedStorage {
            config,
            routing,
            logs: HashMap::new(),
            failed: NodeSet::empty(),
            catalog: HashMap::new(),
            published: 0,
            delta_memo: crate::delta::DeltaMemo::default(),
        }
    }

    /// The storage configuration.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// The routing table currently used for placement.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The store under its own routing table and failed set.
    pub fn view(&self) -> StorageView<'_> {
        StorageView {
            data: self,
            routing: &self.routing,
            failed: self.failed,
        }
    }

    /// Replace the routing table (membership change).  Existing data is
    /// *not* moved — run [`crate::replication::anti_entropy`] afterwards to
    /// restore the placement invariant, exactly as background replication
    /// would in the paper.
    pub fn set_routing(&mut self, routing: RoutingTable) {
        self.routing = routing;
    }

    /// Mark a node as failed: what it holds becomes unreachable for all
    /// lookups (its bits survive in this process, but nothing reads them —
    /// the node is gone).
    pub fn mark_failed(&mut self, node: NodeId) {
        self.failed.insert(node);
    }

    /// Clear a node's failed mark: a crashed or departed node has
    /// rejoined (as a fresh process on the same identity) and may be
    /// read from and written to again.  It holds whatever survived in this
    /// process — nothing, after [`Self::forget`], until anti-entropy
    /// repopulates it under a routing table that lists the node once more.
    pub fn mark_recovered(&mut self, node: NodeId) {
        self.failed.remove(node);
    }

    /// Nodes currently marked failed.
    pub fn failed_nodes(&self) -> NodeSet {
        self.failed
    }

    /// Register a relation before publishing to it.
    pub fn register_relation(&mut self, relation: Relation) {
        self.catalog.insert(relation.name().to_string(), relation);
    }

    /// Look up a relation's metadata.
    pub fn relation(&self, name: &str) -> Option<&Relation> {
        self.catalog.get(name)
    }

    /// Iterate over all registered relations.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.catalog.values()
    }

    /// The most recently published epoch, if anything has been published.
    pub fn latest_epoch(&self) -> Option<Epoch> {
        self.published.checked_sub(1).map(Epoch)
    }

    /// The items of `kind` of `relation`'s log that `node` holds (tests,
    /// diagnostics): `None`, or an empty set, when it holds none.
    pub fn held(&self, node: NodeId, relation: &str, kind: Kind) -> Option<&SlotSet> {
        self.logs.get(relation)?.holders(kind).of(node)
    }

    /// How many items of `kind` `node` holds, over every relation.
    pub fn held_count(&self, node: NodeId, kind: Kind) -> usize {
        let logs = self.logs.values();
        let held = logs.filter_map(|log| log.holders(kind).of(node));
        held.map(SlotSet::len).sum()
    }

    /// Drop everything `node` holds — the permanent loss of its local
    /// storage.  A relation's log that a clone still shares, and that the
    /// node holds something of, is unshared first: its run pointers and
    /// holder bits are copied, its runs shared.
    pub fn forget(&mut self, node: NodeId) {
        for log in self.logs.values_mut() {
            for kind in Kind::ALL {
                if (log.holders(kind).of(node)).is_some_and(|held| !held.is_empty()) {
                    Arc::make_mut(log).holders_mut(kind).forget(node);
                }
            }
        }
    }

    /// Every relation's log, for setting holder bits (anti-entropy), each
    /// with whether the relation is replicated.
    pub(crate) fn logs_mut(&mut self) -> impl Iterator<Item = (bool, &mut Arc<RelationLog>)> {
        let catalog = &self.catalog;
        self.logs.iter_mut().map(move |(name, log)| {
            let replicated = catalog.get(name).is_some_and(Relation::is_replicated);
            (replicated, log)
        })
    }

    /// Everything `relation` has published, one run per publication, or
    /// `None` before its first publication.  A node holds the item of a
    /// kind at slot `s` when [`Self::held`] lists `s`.
    pub fn log(&self, relation: &str) -> Option<&RelationLog> {
        self.logs.get(relation).map(|log| &**log)
    }

    // ------------------------------------------------------------------
    // Publication
    // ------------------------------------------------------------------

    /// Publish one batch of updates as a new epoch, returning the epoch.
    ///
    /// Every relation mentioned in the batch gets a new version that
    /// shares all untouched pages with its previous version.  Its new
    /// tuple versions, page versions and coordinator record are numbered
    /// and stored once, as one run appended to the relation's log, and
    /// their owners and replicas under the current routing table set their
    /// bits; a page lists each version with its slot, and a record each
    /// page with its slot.
    ///
    /// Everything that can fail is resolved for the whole batch before the
    /// first write, so a batch that fails — an unregistered relation, a
    /// short key, a previous record or page no live node holds, a log out
    /// of slots — leaves the store exactly as it was, and its epoch
    /// unpublished.
    pub fn publish(&mut self, batch: &UpdateBatch) -> Result<Epoch> {
        if self.config.partitions_per_relation == 0 && !batch.is_empty() {
            return Err(OrchestraError::StorageInvalid(
                "storage configured with 0 partitions per relation has no page to publish to"
                    .into(),
            ));
        }
        let epoch = Epoch(self.published);
        let staged = (batch.relations())
            .map(|name| self.stage(name, batch.updates_for(name), epoch))
            .collect::<Result<Vec<_>>>()?;
        // Each relation's run is built off to the side; then its holders
        // set their bits and the run is appended.
        for relation in staged {
            let run = self.run(&relation, epoch);
            let (name, mut log) = (self.logs.remove_entry(relation.name))
                .unwrap_or_else(|| (relation.name.to_string(), Arc::default()));
            let writable = Arc::make_mut(&mut log);
            for kind in Kind::ALL {
                let everywhere = relation.replicated && kind == Kind::Tuple;
                self.place(writable.holders_mut(kind), &run, kind, everywhere);
            }
            writable.push(run);
            self.logs.insert(name, log);
        }
        self.published += 1;
        Ok(epoch)
    }

    /// Resolve everything publishing `updates`, the batch's share of
    /// relation `name`, as `epoch` reads from the store, or fail.
    fn stage<'b>(&self, name: &'b str, updates: &'b [Update], epoch: Epoch) -> Result<Staged<'b>> {
        let relation = self.catalog.get(name).ok_or_else(|| {
            OrchestraError::StorageInvalid(format!("relation {name} is not registered"))
        })?;
        let key_len = relation.schema().key_len();
        if let Some(up) = updates.iter().find(|up| up.key(key_len).len() < key_len) {
            return Err(OrchestraError::StorageInvalid(format!(
                "update to {name} has {} key values, schema requires {key_len}",
                up.key(key_len).len()
            )));
        }

        // Group the updates by index-page partition.  This is the one
        // place a tuple key is hashed: the position picks the partition
        // here, then rides along into the page entry and the data nodes.
        let parts = self.config.partitions_per_relation;
        let mut by_partition: Vec<(u32, &Update, Key160)> = (updates.iter())
            .map(|up| {
                let position = orchestra_common::tuple::hash_values(up.key(key_len));
                (partition_of(position, parts), up, position)
            })
            .collect();
        by_partition.sort_by_key(|(partition, ..)| *partition);

        // The previous version of the relation, if any — every record
        // predates `epoch` — and its page of each touched partition.
        let view = self.view();
        let prev = view.version_record(name, epoch)?.cloned();
        let prev_pages = (by_partition.chunk_by(|a, b| a.0 == b.0))
            .map(|ups| {
                let partition = ups[0].0;
                let prev_page = prev.as_ref().and_then(|v| {
                    // Descriptors are ordered by partition.
                    let at = (v.pages)
                        .binary_search_by_key(&partition, |d| d.id.partition)
                        .ok()?;
                    Some(view.lookup_index_page(&v.pages[at]).cloned())
                });
                prev_page.transpose()
            })
            .collect::<Result<Vec<_>>>()?;

        // Room for the record, the touched pages and at most a version per
        // update.
        let log = self.logs.get(name);
        let logged = |kind| log.map_or(0, |log| log.len(kind));
        let adding = [1, prev_pages.len(), updates.len()];
        let full = |(kind, n): &(Kind, usize)| u32::try_from(logged(*kind) + n).is_err();
        if let Some((kind, _)) = Kind::ALL.into_iter().zip(adding).find(full) {
            return Err(OrchestraError::StorageInvalid(format!(
                "{name} would number more than {} items in its {kind:?} log",
                u32::MAX
            )));
        }
        // And room in each new page version's entry buffer, which windows
        // index with a `u32`: a version writes at most the entries its
        // previous version lists and one per update.
        let listed = prev_pages.iter().flatten().map(|page| page.len()).max();
        if u32::try_from(listed.unwrap_or(0) + updates.len()).is_err() {
            return Err(OrchestraError::StorageInvalid(format!(
                "a page of {name} would list more than {} entries",
                u32::MAX
            )));
        }
        Ok(Staged {
            name,
            key_len,
            replicated: relation.is_replicated(),
            prev,
            updates: by_partition,
            prev_pages,
        })
    }

    /// Build the run publishing one relation's share of a batch, `staged`,
    /// as `epoch` creates: nothing here can fail.  Its slots continue the
    /// relation's log.
    fn run(&self, staged: &Staged<'_>, epoch: Epoch) -> Run {
        let (name, key_len, updates) = (staged.name, staged.key_len, &staged.updates);
        let log = self.logs.get(name);
        // The log's room for the run was checked by `stage`.
        let first = Kind::ALL.map(|kind| log.map_or(0, |log| log.len(kind)) as u32);
        let parts = self.config.partitions_per_relation;
        let is_touched = |partition: u32| updates.binary_search_by_key(&partition, |u| u.0).is_ok();
        // The relation's name, which all its page IDs share: the previous
        // version's, or made once for the batch.
        let relation: Arc<str> = (staged.prev.as_ref())
            .and_then(|v| v.pages.first())
            .map_or_else(|| Arc::from(name), |d| Arc::clone(&d.id.relation));

        // Start from the previous version's descriptors for untouched pages.
        let mut descriptors: Vec<PageDescriptor> = (staged.prev.as_ref())
            .map(|v| {
                (v.pages.iter())
                    .filter(|d| !is_touched(d.id.partition))
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();

        // The versions the batch creates, partition by partition and, in
        // one, in batch order; stored, then listed with their slots.
        let fresh: Vec<(Key160, &Tuple)> = (updates.iter())
            .filter_map(|(_, up, position)| match up {
                Update::Insert(t) | Update::Modify(t) => Some((*position, t)),
                Update::Delete(_) => None,
            })
            .collect();
        let (versions, version_positions, offsets) = tuple_run(key_len, &fresh);
        // An offset is below the run's length, so its slot fits as the
        // log's end does.
        let slots = offsets
            .iter()
            .map(|&o| first[Kind::Tuple as usize] + o as u32);
        let mut numbered = fresh.iter().zip(slots);

        let touched = || updates.chunk_by(|a, b| a.0 == b.0).zip(&staged.prev_pages);
        // Each touched page removes at most the versions its modifies and
        // deletes supersede and adds one per insert or modify.
        let changes = |ups: &[(u32, &Update, Key160)]| {
            let removes = ups.iter().filter(|(_, up, _)| !up.is_insert()).count();
            let adds = ups
                .iter()
                .filter(|(_, up, _)| !matches!(up, Update::Delete(_)));
            (removes, adds.count())
        };
        let mut writer = PageWriter::for_pages(touched().map(|(ups, prev_page)| {
            let (removes, adds) = changes(ups);
            (prev_page.as_deref().map(|p| &p.entries), removes, adds)
        }));
        let mut pages = Vec::with_capacity(staged.prev_pages.len());
        for (ups, prev_page) in touched() {
            let partition = ups[0].0;
            // The superseded versions are found in (and borrowed from) the
            // key-sorted previous page by binary search.
            for (_, up, _) in ups.iter().filter(|(_, up, _)| !up.is_insert()) {
                let key = up.key(key_len);
                if let Some(prev) = prev_page.as_ref().and_then(|p| p.current_version_of(key)) {
                    writer.remove.push(&prev.id);
                }
            }
            // The page's copies of the IDs — strings copied too, so the
            // store owns them — are made after every body of the epoch, so
            // their keys sit together on the heap.  A walk that reads keys
            // only (`retrieve` under a key filter, 60k rows) took 1.1 ms
            // this way and 2.2-2.9 ms with each entry built beside its row
            // body; scans cost the same.  Every later version of the page
            // shares these keys.
            let own = |v: &Value| match v {
                Value::Str(s) => Value::str(&**s),
                number_or_null => number_or_null.clone(),
            };
            let adds = numbered.by_ref().take(changes(ups).1);
            writer.add.extend(adds.map(|((position, tuple), slot)| {
                let key: Arc<[Value]> = tuple.key(key_len).iter().map(own).collect();
                PageEntry::new(TupleId::new(key, epoch), *position, slot)
            }));
            let prev_page = prev_page.as_deref();
            let new_page = IndexPage {
                id: PageId::new(Arc::clone(&relation), epoch, partition),
                range: prev_page.map_or_else(|| partition_range(partition, parts), |p| p.range),
                entries: writer.write(prev_page.map(|p| &p.entries)),
            };
            // The run's pages continue the log's slots in partition order.
            let slot = first[Kind::Page as usize] + pages.len() as u32;
            descriptors.push(new_page.descriptor(slot));
            pages.push(Arc::new(new_page));
        }

        // The coordinator record for the new version.
        let coord_key = CoordinatorKey::new(name, epoch);
        let position = coord_key.hash();
        Run {
            first,
            record: (
                position,
                Arc::new(RelationVersion::new(coord_key, descriptors)),
            ),
            // A page is placed at the node owning the middle of its range.
            page_positions: pages.iter().map(|p| p.range.midpoint()).collect(),
            pages,
            versions,
            version_positions,
        }
    }

    // ------------------------------------------------------------------
    // Version resolution and statistics
    // ------------------------------------------------------------------

    /// The version of `relation` visible at `epoch`: the latest epoch at
    /// which the relation changed that is `<= epoch`.  Epochs are
    /// appended in publication order, so the answer is a binary search —
    /// version resolution sits on every scan and delta path and a linear
    /// walk would grow with a relation's publication history.
    pub fn version_at(&self, relation: &str, epoch: Epoch) -> Option<Epoch> {
        let log = self.logs.get(relation)?;
        Some(log.record(log.record_at(epoch)?)?.key.epoch)
    }

    /// All epochs at which `relation` changed, in order.
    pub fn version_history(&self, relation: &str) -> impl Iterator<Item = Epoch> + '_ {
        let records = self
            .log(relation)
            .into_iter()
            .flat_map(RelationLog::records);
        records.map(|record| record.key.epoch)
    }

    /// Cardinality of `relation` at `epoch` (from coordinator metadata —
    /// the statistic the optimizer uses).
    pub fn relation_cardinality(&self, relation: &str, epoch: Epoch) -> usize {
        match self.view().version_record(relation, epoch) {
            Ok(Some(version)) => version.tuple_count(),
            _ => 0,
        }
    }

    /// Set the bits of `run`'s items of `kind` in `holders`, the log's
    /// holders of that kind, at every live holder of each: the replica set
    /// of its position, or every live node when `everywhere` (a replicated
    /// relation's tuple versions).  The slots one routing entry places are
    /// consecutive, so a holder is handed ranges, not single items.
    fn place(&self, holders: &mut Holders, run: &Run, kind: Kind, everywhere: bool) {
        let (first, positions) = run.placed(kind);
        // The run's slots fit in a `u32`, as its log's do.
        let end = first + positions.len() as u32;
        let mut set = |nodes: &[NodeId], slots: Range<u32>| {
            let live = nodes.iter().filter(|n| self.view().is_live(**n));
            for &node in live.filter(|_| !slots.is_empty()) {
                (holders.of_mut(node, end as usize)).insert_range(slots.clone());
            }
        };
        if everywhere {
            return set(&self.routing.nodes(), first..end);
        }
        let (mut start, mut current): (u32, &[NodeId]) = (first, &[]);
        for (slot, position) in (first..).zip(positions) {
            let replicas = self.routing.replicas_of(*position);
            if !std::ptr::eq(replicas, current) {
                set(current, start..slot);
                (start, current) = (slot, replicas);
            }
        }
        set(current, start..end);
    }

    /// [`StorageView::scan_partition_ref`] under the store's own view, for
    /// callers that want to own the tuples: the same scan, each stored row
    /// built as a [`Tuple`].
    pub fn scan_partition(
        &self,
        relation: &str,
        epoch: Epoch,
        node: NodeId,
        ranges: &[KeyRange],
    ) -> Result<PartitionScan> {
        let scan = self
            .view()
            .scan_partition_ref(relation, epoch, node, ranges)?;
        Ok(PartitionScan {
            tuples: scan.tuples.iter().map(StoredRow::tuple).collect(),
            pages_read: scan.pages_read,
            tuples_read: scan.tuples_read,
            remote_lookups: scan.remote_lookups,
            remote_transfers: scan.remote_transfers,
        })
    }

    /// Full Algorithm 1 retrieval under the store's own view: find all
    /// tuples of `relation` at `epoch` whose *key* satisfies `filter`, on
    /// behalf of `requester`, tracing the messages the distributed lookup
    /// generates.
    pub fn retrieve(
        &self,
        relation: &str,
        epoch: Epoch,
        requester: NodeId,
        filter: &dyn Fn(&[orchestra_common::Value]) -> bool,
    ) -> Result<RetrievalResult> {
        let view = self.view();
        let mut result = RetrievalResult::default();
        let Some(version_epoch) = self.version_at(relation, epoch) else {
            return Ok(result);
        };
        let coord_key = CoordinatorKey::new(relation, version_epoch);
        let coord_node = view
            .live_replicas(coord_key.hash())
            .next()
            .ok_or_else(|| OrchestraError::Substrate("no live coordinator owner".into()))?;
        let version = view.lookup_coordinator(&coord_key)?;
        // Request to the coordinator and its reply (the page list).
        result.messages.push((requester, coord_node, 64));
        result
            .messages
            .push((coord_node, requester, version.serialized_size()));

        for descriptor in &version.pages {
            let index_node = view
                .live_replicas(descriptor.storage_key)
                .next()
                .unwrap_or(coord_node);
            // Scan request to the index node.
            result.messages.push((requester, index_node, 96));
            let page = view.lookup_index_page(descriptor)?;
            result.pages_scanned += 1;
            for window in page.entries.windows() {
                for entry in window {
                    if !filter(&entry.id.key) {
                        continue;
                    }
                    let data_node = view
                        .live_replicas(entry.position)
                        .next()
                        .unwrap_or(index_node);
                    if data_node != index_node {
                        // The tuple ID crosses the network only when the index
                        // page and the data are not co-located (Example 4.2).
                        result
                            .messages
                            .push((index_node, data_node, entry.id.serialized_size()));
                    }
                    let (row, _) = view.lookup_tuple(relation, entry, Some(data_node))?;
                    result
                        .messages
                        .push((data_node, requester, row.serialized_size()));
                    result.tuples.push(row.tuple());
                }
            }
        }
        Ok(result)
    }
}

/// The tuple versions one publication of a relation creates — `fresh`,
/// each the ring position of its key and the batch's tuple — as a run's
/// bodies and positions, with each write's offset among the run's slots,
/// in `fresh`'s order.
///
/// The versions are numbered in position order ([`Run`]); a key written
/// twice is one version with the later write's body.  The bodies are
/// stored as one [`TupleRun`], columns whose strings are the store's
/// copies, made once per distinct string; its rows are in `fresh`'s order,
/// so that a partition's rows lie together and, for keys generated in
/// order, in the order a scan of its page reads them (bodies laid out in
/// slot order instead, the host benchmark's `adhoc_read` read 84–86 ms an
/// operation against 76–80, three pairs on one box, when bodies were
/// rows).
fn tuple_run(key_len: usize, fresh: &[(Key160, &Tuple)]) -> (TupleRun, Vec<Key160>, Vec<usize>) {
    let key = |i: usize| fresh[i].1.key(key_len);
    let mut order: Vec<usize> = (0..fresh.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        (fresh[a].0.cmp(&fresh[b].0))
            .then_with(|| key(a).cmp(key(b)))
            .then(a.cmp(&b))
    });
    // Per slot of the run, the write whose body it stores; per write, its
    // slot's offset in the run.
    let mut stored: Vec<usize> = Vec::with_capacity(fresh.len());
    let mut offset = vec![0; fresh.len()];
    for (k, &i) in order.iter().enumerate() {
        let j = order[k.saturating_sub(1)];
        match stored.last_mut() {
            Some(last) if fresh[j].0 == fresh[i].0 && key(j) == key(i) => *last = i,
            _ => stored.push(i),
        }
        offset[i] = stored.len() - 1;
    }
    // The stored bodies, in `fresh`'s order, and the row of each slot.
    let mut bodies: Vec<&[Value]> = Vec::with_capacity(stored.len());
    let mut row_of = vec![0; stored.len()];
    for (i, &o) in offset.iter().enumerate() {
        if stored[o] == i {
            // At most one row per update, which the log's room covers.
            row_of[o] = bodies.len() as u32;
            bodies.push(fresh[i].1.values());
        }
    }
    let positions = stored.iter().map(|&i| fresh[i].0).collect();
    (TupleRun::new(&bodies, row_of), positions, offset)
}

impl<'a> StorageView<'a> {
    /// The same data placed by `routing` (a query's snapshot, stale or
    /// not, or a recovery table), with the same nodes unreadable.
    pub fn with_routing(self, routing: &'a RoutingTable) -> StorageView<'a> {
        StorageView { routing, ..self }
    }

    /// This view with the nodes of `failed` unreadable too.
    pub fn with_failed(self, failed: NodeSet) -> StorageView<'a> {
        StorageView {
            failed: self.failed.union(&failed),
            ..self
        }
    }

    /// The routing table the view places state by.
    pub fn routing(&self) -> &'a RoutingTable {
        self.routing
    }

    // ------------------------------------------------------------------
    // Lookups with fail-over
    // ------------------------------------------------------------------

    /// Can what `node` holds be read (and, under the store's own view,
    /// written)?
    fn is_live(&self, node: NodeId) -> bool {
        !self.failed.contains(node)
    }

    /// The live members of `key`'s replica set, owner first.
    fn live_replicas(&self, key: Key160) -> impl Iterator<Item = NodeId> + '_ {
        self.routing
            .replicas_of(key)
            .iter()
            .copied()
            .filter(|n| self.is_live(*n))
    }

    /// The first live node of `holders` that holds the item at `slot`,
    /// placed at `position`: its owner, then its replicas, then every live
    /// node.
    fn holder(&self, holders: &Holders, slot: u32, position: Key160) -> Option<NodeId> {
        let holds = |node: &NodeId| holders.holds(*node, slot);
        let live = |n: &NodeId| self.is_live(*n);
        self.live_replicas(position).find(holds).or_else(|| {
            let mut every = self.routing.nodes().into_iter().filter(live);
            every.find(holds)
        })
    }

    /// Find the coordinator record for `key`, trying the owner, then the
    /// replicas, then every live node.
    pub fn lookup_coordinator(&self, key: &CoordinatorKey) -> Result<&'a Arc<RelationVersion>> {
        let visible = self.version_record(&key.relation, key.epoch)?;
        let found = visible.filter(|record| record.key.epoch == key.epoch);
        found.ok_or_else(|| missing_record(&key.relation, Some(key.epoch)))
    }

    /// The coordinator record of the version of `relation` visible at
    /// `epoch`, or `None` when the relation has no version yet; an error
    /// when no live node holds it (its position's owner, replicas, then
    /// every live node are tried).  Found by epoch in the relation's record
    /// log, so nothing is built or hashed.
    pub fn version_record(
        &self,
        relation: &str,
        epoch: Epoch,
    ) -> Result<Option<&'a Arc<RelationVersion>>> {
        let Some(log) = self.data.log(relation) else {
            return Ok(None);
        };
        let Some(slot) = log.record_at(epoch) else {
            return Ok(None);
        };
        let record = log.record(slot).zip(log.position(Kind::Record, slot));
        let holders = log.holders(Kind::Record);
        match record {
            Some((record, at)) if self.holder(holders, slot, at).is_some() => Ok(Some(record)),
            _ => Err(missing_record(relation, record.map(|(r, _)| r.key.epoch))),
        }
    }

    /// Find an index page, trying its storage position's owner, replicas,
    /// then every live node.
    pub fn lookup_index_page(&self, descriptor: &PageDescriptor) -> Result<&'a Arc<IndexPage>> {
        let (relation, slot) = (&descriptor.id.relation, descriptor.slot);
        let log = self.data.log(relation);
        let holds = |log: &RelationLog| {
            (self.holder(log.holders(Kind::Page), slot, descriptor.storage_key)).is_some()
        };
        let held = log.filter(|log| holds(log));
        held.and_then(|log| log.page(slot)).ok_or_else(|| {
            OrchestraError::StorageMissing(format!(
                "no live node holds index page {}",
                descriptor.id
            ))
        })
    }

    /// Find a holder of the tuple version a page entry lists, trying the
    /// data storage owner, its replicas, then every live node.
    /// `preferred` (the scanning node) is consulted first; the second
    /// element of the result is the remote node that served the lookup, or
    /// `None` when it was served locally.  A node holds the version when
    /// its bit for the entry's slot is set, and the version is its row in
    /// the relation's log.
    pub fn lookup_tuple(
        &self,
        relation: &str,
        entry: &PageEntry,
        preferred: Option<NodeId>,
    ) -> Result<(StoredRow<'a>, Option<NodeId>)> {
        let missing = || {
            OrchestraError::StorageMissing(format!(
                "tuple {} of {relation} is not held by any live node",
                entry.id
            ))
        };
        let log = self.data.log(relation).ok_or_else(missing)?;
        let tuple = log.version(entry.slot).ok_or_else(missing)?;
        let holders = log.holders(Kind::Tuple);
        let local = preferred.filter(|n| self.is_live(*n));
        if local.is_some_and(|n| holders.holds(n, entry.slot)) {
            return Ok((tuple, None));
        }
        let node = (self.holder(holders, entry.slot, entry.position)).ok_or_else(missing)?;
        Ok((tuple, (preferred != Some(node)).then_some(node)))
    }

    /// What a scan on behalf of `node` resolves before its page loop: the
    /// versions of `relation` the node itself holds — nothing when the
    /// node is not live — and the log they index.
    pub(crate) fn local_scan(
        &self,
        relation: &str,
        node: NodeId,
    ) -> Option<(&'a SlotSet, &'a RelationLog)> {
        let log = self.data.log(relation)?;
        let held = log
            .holders(Kind::Tuple)
            .of(node)
            .filter(|_| self.is_live(node))?;
        Some((held, log))
    }

    /// Read the tuple `entry` lists for a scan on behalf of `node`, whose
    /// own versions of `relation` (`local`, see [`Self::local_scan`]) were
    /// resolved before the scan's page loop: an entry the node holds is
    /// answered from there, any other goes the whole way
    /// ([`Self::lookup_tuple`]).  The read is counted in `scan`, and a
    /// tuple a remote holder served is charged to that holder — transfers
    /// are aggregated per source node, in first-use order.
    pub(crate) fn scan_tuple<T>(
        &self,
        scan: &mut PartitionScan<T>,
        local: Option<(&'a SlotSet, &'a RelationLog)>,
        relation: &str,
        entry: &PageEntry,
        node: NodeId,
    ) -> Result<StoredRow<'a>> {
        let held = local.filter(|(held, _)| held.contains(entry.slot));
        let (tuple, remote) = match held.and_then(|(_, log)| log.version(entry.slot)) {
            Some(tuple) => (tuple, None),
            None => self.lookup_tuple(relation, entry, Some(node))?,
        };
        scan.tuples_read += 1;
        if let Some(src) = remote {
            scan.remote_lookups += 1;
            let bytes = tuple.serialized_size();
            match scan.remote_transfers.iter_mut().find(|(n, _)| *n == src) {
                Some((_, b)) => *b += bytes,
                None => scan.remote_transfers.push((src, bytes)),
            }
        }
        Ok(tuple)
    }

    /// [`Self::lookup_tuple`] with no preferred node, for a pass over
    /// many versions of `relation`: the relation's log is found by name
    /// once, up front, and a version is then read from it when a live
    /// replica holds it — or, when none does, looked up the whole way.
    pub(crate) fn tuple_lookup<'r>(
        &self,
        relation: &'r str,
    ) -> impl Fn(&PageEntry) -> Result<StoredRow<'a>> + 'r
    where
        'a: 'r,
    {
        let view = *self;
        let log = view.data.log(relation);
        move |entry| {
            let mut replicas = view.live_replicas(entry.position);
            let held =
                log.filter(|log| replicas.any(|n| log.holders(Kind::Tuple).holds(n, entry.slot)));
            match held.and_then(|log| log.version(entry.slot)) {
                Some(tuple) => Ok(tuple),
                None => Ok(view.lookup_tuple(relation, entry, None)?.0),
            }
        }
    }

    // ------------------------------------------------------------------
    // Scans
    // ------------------------------------------------------------------

    /// Scan the version of `relation` visible at `epoch`, restricted to
    /// tuple-key hashes in `ranges`, on behalf of `node`.
    ///
    /// This is the storage half of the engine's *distributed scan*
    /// operator: the index pages overlapping the ranges are read, their
    /// entries filtered to the ranges by cached ring position, and the
    /// tuple versions located — held by `node` itself when co-location
    /// holds, by replicas otherwise.  Nothing is hashed and nothing is
    /// copied: the result names each tuple's row in the relation's log.
    pub fn scan_partition_ref(
        &self,
        relation: &str,
        epoch: Epoch,
        node: NodeId,
        ranges: &[KeyRange],
    ) -> Result<PartitionScan<StoredRow<'a>>> {
        let mut scan = PartitionScan::default();
        let Some(version) = self.version_record(relation, epoch)? else {
            return Ok(scan);
        };
        let local = self.local_scan(relation, node);
        for descriptor in &version.pages {
            if !ranges.iter().any(|r| r.overlaps(&descriptor.range)) {
                continue;
            }
            let page = self.lookup_index_page(descriptor)?;
            scan.pages_read += 1;
            for window in page.entries.windows() {
                for entry in window {
                    if ranges.iter().any(|r| r.contains(entry.position)) {
                        let tuple = self.scan_tuple(&mut scan, local, relation, entry, node)?;
                        scan.tuples.push(tuple);
                    }
                }
            }
        }
        Ok(scan)
    }

    /// Read the full contents of a *replicated* relation from `node`'s
    /// local copy.
    pub fn scan_replicated(
        &self,
        relation: &str,
        epoch: Epoch,
        node: NodeId,
    ) -> Result<Vec<StoredRow<'a>>> {
        let rel = self.data.relation(relation).ok_or_else(|| {
            OrchestraError::StorageInvalid(format!("relation {relation} is not registered"))
        })?;
        if !rel.is_replicated() {
            return Err(OrchestraError::StorageInvalid(format!(
                "relation {relation} is partitioned; use scan_partition"
            )));
        }
        let scan = self.scan_partition_ref(relation, epoch, node, &[KeyRange::full()])?;
        Ok(scan.tuples)
    }
}

/// The error of a lookup that finds no live holder of `relation`'s record
/// at `epoch`.
fn missing_record(relation: &str, epoch: Option<Epoch>) -> OrchestraError {
    let at = epoch.map_or_else(String::new, |e| format!(" at {e}"));
    OrchestraError::StorageMissing(format!(
        "no live node holds the coordinator record for {relation}{at}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{ColumnType, Schema, Value};
    use orchestra_substrate::AllocationScheme;

    fn schema() -> Schema {
        Schema::keyed_on_first(vec![("x", ColumnType::Str), ("y", ColumnType::Str)])
    }

    fn storage(nodes: u16) -> DistributedStorage {
        let routing = RoutingTable::build(
            &(0..nodes).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        let mut s = DistributedStorage::new(
            routing,
            StorageConfig {
                partitions_per_relation: 8,
            },
        );
        s.register_relation(Relation::partitioned("R", schema()));
        s
    }

    fn r(x: &str, y: &str) -> Tuple {
        Tuple::new(vec![Value::str(x), Value::str(y)])
    }

    /// Reproduces the running example of Section IV (Example 4.1/4.2).
    #[test]
    fn paper_running_example() {
        let mut s = storage(3);
        // Epoch 0: insert R(a,b) and R(f,z).
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "b")).insert("R", r("f", "z"));
        assert_eq!(s.publish(&b0).unwrap(), Epoch(0));
        // Epoch 1: insert R(b,c), R(e,e), R(c,f); modify R(f,z) -> R(f,a).
        let mut b1 = UpdateBatch::new();
        b1.insert("R", r("b", "c"))
            .insert("R", r("e", "e"))
            .insert("R", r("c", "f"))
            .modify("R", r("f", "a"));
        assert_eq!(s.publish(&b1).unwrap(), Epoch(1));
        // Epoch 2: insert R(d,d).
        let mut b2 = UpdateBatch::new();
        b2.insert("R", r("d", "d"));
        assert_eq!(s.publish(&b2).unwrap(), Epoch(2));

        // A lookup of R at epoch 2 sees six tuples, with R(f, a) — not the
        // stale R(f, z).
        let result = s.retrieve("R", Epoch(2), NodeId(1), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 6);
        assert!(result.tuples.contains(&r("f", "a")));
        assert!(!result.tuples.contains(&r("f", "z")));

        // At epoch 0 only the two original tuples (including the old
        // version of f) are visible.
        let old = s.retrieve("R", Epoch(0), NodeId(1), &|_| true).unwrap();
        assert_eq!(old.tuples.len(), 2);
        assert!(old.tuples.contains(&r("f", "z")));

        // At epoch 1, d is not yet visible.
        let mid = s.retrieve("R", Epoch(1), NodeId(1), &|_| true).unwrap();
        assert_eq!(mid.tuples.len(), 5);
        assert!(!mid.tuples.contains(&r("d", "d")));
    }

    #[test]
    fn filter_is_applied_on_keys() {
        let mut s = storage(3);
        let mut b = UpdateBatch::new();
        for k in ["a", "b", "c", "d"] {
            b.insert("R", r(k, "v"));
        }
        s.publish(&b).unwrap();
        let result = s
            .retrieve("R", Epoch(0), NodeId(0), &|key| {
                key[0].as_str() == Some("c")
            })
            .unwrap();
        assert_eq!(result.tuples.len(), 1);
        assert_eq!(result.tuples[0], r("c", "v"));
    }

    #[test]
    fn partition_scans_cover_exactly_once() {
        let mut s = storage(4);
        let mut b = UpdateBatch::new();
        for i in 0..200 {
            b.insert("R", r(&format!("k{i}"), &format!("v{i}")));
        }
        s.publish(&b).unwrap();

        // Scanning each node's own ranges yields every tuple exactly once.
        let mut seen = Vec::new();
        let mut remote = 0;
        for node in s.routing().nodes() {
            let ranges = s.routing().ranges_of(node);
            let scan = s.scan_partition("R", Epoch(0), node, &ranges).unwrap();
            remote += scan.remote_lookups;
            seen.extend(scan.tuples);
        }
        assert_eq!(seen.len(), 200);
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), 200);
        // Co-location: data pages live where their tuples live, so scans
        // are overwhelmingly local.
        assert_eq!(remote, 0);
    }

    #[test]
    fn deletes_remove_from_new_version_only() {
        let mut s = storage(3);
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "1")).insert("R", r("b", "2"));
        s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.delete("R", vec![Value::str("a")]);
        s.publish(&b1).unwrap();

        let now = s.retrieve("R", Epoch(1), NodeId(0), &|_| true).unwrap();
        assert_eq!(now.tuples, vec![r("b", "2")]);
        let before = s.retrieve("R", Epoch(0), NodeId(0), &|_| true).unwrap();
        assert_eq!(before.tuples.len(), 2);
    }

    #[test]
    fn many_modifies_and_deletes_landing_in_one_page() {
        // One partition, so every update of the batch rewrites the same
        // page: superseded versions are found by binary search and dropped
        // in one merge with the new entries.
        let routing = RoutingTable::build(
            &(0..3).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        let mut s = DistributedStorage::new(
            routing,
            StorageConfig {
                partitions_per_relation: 1,
            },
        );
        s.register_relation(Relation::partitioned("R", schema()));
        let key = |i: usize| format!("k{i:02}");
        let mut b0 = UpdateBatch::new();
        for i in 0..30 {
            b0.insert("R", r(&key(i), "old"));
        }
        let e0 = s.publish(&b0).unwrap();

        let (modified, deleted) = ([2, 9, 17, 28], [0, 10, 18, 29]);
        let mut b1 = UpdateBatch::new();
        // Interleaved and out of key order, plus a delete and a modify of
        // keys that do not exist (no version to supersede).
        b1.delete("R", vec![Value::str(key(deleted[3]))])
            .modify("R", r(&key(modified[2]), "new"))
            .delete("R", vec![Value::str(key(deleted[0]))])
            .insert("R", r("k99", "fresh"))
            .modify("R", r(&key(modified[0]), "new"))
            .delete("R", vec![Value::str("absent")])
            .delete("R", vec![Value::str(key(deleted[2]))])
            .modify("R", r(&key(modified[3]), "new"))
            .modify("R", r(&key(modified[1]), "new"))
            .delete("R", vec![Value::str(key(deleted[1]))])
            .modify("R", r("k98", "upsert"));
        let e1 = s.publish(&b1).unwrap();

        let mut expected: Vec<Tuple> = (0..30)
            .filter(|i| !deleted.contains(i))
            .map(|i| r(&key(i), if modified.contains(&i) { "new" } else { "old" }))
            .chain([r("k98", "upsert"), r("k99", "fresh")])
            .collect();
        expected.sort();
        let mut now = s.retrieve("R", e1, NodeId(0), &|_| true).unwrap().tuples;
        now.sort();
        assert_eq!(now, expected);
        assert_eq!(s.relation_cardinality("R", e1), 30 - 4 + 2);

        // The previous version is untouched.
        let before = s.retrieve("R", e0, NodeId(0), &|_| true).unwrap().tuples;
        assert_eq!(before.len(), 30);
        assert!(before.iter().all(|t| t.value(1) == &Value::str("old")));

        // The page lists its entries in ID order, positions intact.
        let version = s.view().version_record("R", e1).unwrap().unwrap();
        let page = s.view().lookup_index_page(&version.pages[0]).unwrap();
        assert!(page.entries.iter().is_sorted());
        assert!(page.entries.iter().all(|e| e.position == e.id.hash_key()));
    }

    #[test]
    fn key_touched_twice_in_one_batch_is_superseded_whole() {
        // A batch is not deduplicated: insert(a) then modify(a) in one
        // epoch lists the ID (a, e0) twice.  The next modify supersedes
        // both copies, and a delete leaves nothing behind.
        let mut s = storage(3);
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "1"))
            .modify("R", r("a", "2"))
            .insert("R", r("b", "1"));
        let e0 = s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.modify("R", r("a", "3")).modify("R", r("a", "4"));
        let e1 = s.publish(&b1).unwrap();
        let mut b2 = UpdateBatch::new();
        b2.delete("R", vec![Value::str("a")]);
        let e2 = s.publish(&b2).unwrap();

        let at = |e| {
            let mut tuples = s.retrieve("R", e, NodeId(0), &|_| true).unwrap().tuples;
            tuples.sort();
            tuples
        };
        let (a2, a4, b1) = (r("a", "2"), r("a", "4"), r("b", "1"));
        assert_eq!(at(e0), vec![a2.clone(), a2.clone(), b1.clone()]);
        assert_eq!(at(e1), vec![a4.clone(), a4.clone(), b1.clone()]);
        assert_eq!(at(e2), vec![b1.clone()]);
        assert_eq!(s.relation_cardinality("R", e2), 1);

        // Both entries of a twice-written ID name one slot of the log,
        // which holds the later body: a, b at e0 and a at e1.
        assert_eq!(s.log("R").unwrap().len(Kind::Tuple), 3);
        let version = s.view().version_record("R", e1).unwrap().unwrap();
        let slots: Vec<u32> = (version.pages.iter())
            .flat_map(|d| &s.view().lookup_index_page(d).unwrap().entries)
            .filter(|e| e.id.key[0] == Value::str("a"))
            .map(|e| e.slot)
            .collect();
        assert_eq!(slots, [2, 2]);

        // The deltas see both copies change together.
        let d = s.delta("R", e0, e1).unwrap();
        assert_eq!(d.partitions.len(), 1);
        let both = vec![(a2.clone(), a4.clone()); 2];
        assert_eq!(d.partitions[0].modifies, both);
        assert_eq!(d.signed_row_count(), 4);
        let d = s.delta("R", e0, e2).unwrap();
        assert_eq!(d.partitions[0].deletes, vec![a2.clone(), a2.clone()]);
        assert_eq!(d.signed_row_count(), 2);

        // So do partition scans and delta scans, on every node, and on a
        // node that joins after the fact once anti-entropy has placed its
        // share: the union of the nodes' scans of their own ranges.
        let scans = |s: &DistributedStorage, e: Epoch| {
            let mut tuples = Vec::new();
            for node in s.routing().nodes() {
                let ranges = s.routing().ranges_of(node);
                let scan = s.view().scan_partition_ref("R", e, node, &ranges).unwrap();
                assert_eq!(scan.remote_lookups, 0, "{node} scans locally");
                tuples.extend(scan.tuples.iter().map(StoredRow::tuple));
            }
            tuples.sort();
            tuples
        };
        let deltas = |s: &DistributedStorage, from: Epoch, to: Epoch| {
            let mut signed = Vec::new();
            for node in s.routing().nodes() {
                let ranges = s.routing().ranges_of(node);
                let scan = s.view().delta_partition_ref("R", from, to, node, &ranges);
                signed.extend(
                    scan.unwrap()
                        .tuples
                        .into_iter()
                        .map(|(t, s)| (t.tuple(), s)),
                );
            }
            signed.sort();
            signed
        };
        let joined = {
            let mut s = s.clone();
            let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
            s.set_routing(RoutingTable::build(&nodes, AllocationScheme::Balanced, 3));
            crate::replication::anti_entropy(&mut s).unwrap();
            assert!(
                s.held_count(NodeId(3), Kind::Tuple) > 0,
                "the joiner holds its share"
            );
            s
        };
        for s in [&s, &joined] {
            assert_eq!(scans(s, e0), at(e0));
            assert_eq!(scans(s, e1), at(e1));
            assert_eq!(scans(s, e2), at(e2));
            let changed = vec![
                (a2.clone(), -1),
                (a2.clone(), -1),
                (a4.clone(), 1),
                (a4.clone(), 1),
            ];
            assert_eq!(deltas(s, e0, e1), changed);
            assert_eq!(deltas(s, e1, e2), vec![(a4.clone(), -1), (a4.clone(), -1)]);
        }
    }

    #[test]
    fn unregistered_relation_is_rejected() {
        let mut s = storage(2);
        let mut b = UpdateBatch::new();
        b.insert("Unknown", r("a", "b"));
        assert!(s.publish(&b).is_err());
    }

    #[test]
    fn an_invalid_relation_leaves_the_rest_of_its_batch_unpublished() {
        // Regression: relations used to be written one by one, so an
        // error on the second left the first in node stores under an
        // epoch that was never committed.
        let mut s = storage(3);
        s.register_relation(Relation::partitioned("S", schema()));
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "1"));
        let e0 = s.publish(&b0).unwrap();

        let snapshot = |s: &DistributedStorage| {
            let counts: Vec<[usize; 3]> = (0..3)
                .map(|n| Kind::ALL.map(|kind| s.held_count(NodeId(n), kind)))
                .collect();
            let full = [KeyRange::full()];
            let scan = s.scan_partition("R", e0, NodeId(0), &full).unwrap();
            (
                counts,
                scan.tuples,
                s.latest_epoch(),
                s.version_history("R").collect::<Vec<_>>(),
            )
        };
        let before = snapshot(&s);

        // "R" sorts first and is valid; the relation after it is not.
        let mut unregistered = UpdateBatch::new();
        unregistered
            .insert("R", r("b", "2"))
            .insert("Z", r("x", "y"));
        let mut short_key = UpdateBatch::new();
        short_key.insert("R", r("b", "2")).delete("S", vec![]);
        for bad in [&unregistered, &short_key] {
            let err = s.publish(bad).unwrap_err();
            assert!(matches!(err, OrchestraError::StorageInvalid(_)), "{err}");
            assert_eq!(snapshot(&s), before);
        }

        // The epoch number the failed batches would have taken is free.
        let mut b1 = UpdateBatch::new();
        b1.insert("R", r("b", "2"));
        assert_eq!(s.publish(&b1).unwrap(), Epoch(1));
        assert_eq!(s.relation_cardinality("R", Epoch(1)), 2);
    }

    #[test]
    fn a_batch_that_cannot_be_read_leaves_the_store_as_it_was() {
        // Regression: a batch was written relation by relation, so a
        // failed read of the second (its previous record, on failed nodes)
        // left the first's new version behind — and a retry gave the first
        // two records of one epoch.
        let mut s = storage(6);
        s.register_relation(Relation::partitioned("S", schema()));
        let mut b0 = UpdateBatch::new();
        for k in ["a", "b", "c"] {
            b0.insert("R", r(k, "0")).insert("S", r(k, "0"));
        }
        s.publish(&b0).unwrap();

        let holdings = |s: &DistributedStorage| {
            let mut held = Vec::new();
            for node in s.routing().nodes() {
                for relation in ["R", "S"] {
                    for kind in Kind::ALL {
                        let slots = s.held(node, relation, kind).into_iter();
                        held.push(slots.flat_map(SlotSet::iter).collect::<Vec<_>>());
                    }
                }
            }
            let r = Kind::ALL.map(|kind| s.log("R").unwrap().len(kind));
            (r, held, s.latest_epoch())
        };
        let before = holdings(&s);

        // Every holder of S's record fails; the batch touches R, then S.
        let record = s.log("S").unwrap().position(Kind::Record, 0).unwrap();
        let holders: Vec<NodeId> = s.routing().replicas_of(record).to_vec();
        for node in &holders {
            s.mark_failed(*node);
        }
        let mut b1 = UpdateBatch::new();
        b1.modify("R", r("a", "1"));
        assert!(s.clone().publish(&b1).is_ok(), "R's share alone publishes");
        b1.modify("S", r("b", "1"));
        let err = s.publish(&b1).unwrap_err();
        assert!(matches!(err, OrchestraError::StorageMissing(_)), "{err}");
        assert_eq!(holdings(&s), before);

        for node in holders {
            s.mark_recovered(node);
        }
        let e1 = s.publish(&b1).unwrap();
        assert_eq!(e1, Epoch(1));
        for relation in ["R", "S"] {
            assert!(s.version_history(relation).eq([Epoch(0), e1]), "{relation}");
        }
        let now = s.retrieve("R", e1, NodeId(0), &|key| key[0] == Value::str("a"));
        assert_eq!(now.unwrap().tuples, [r("a", "1")]);
    }

    #[test]
    fn zero_partitions_is_an_error_not_a_panic() {
        // Regression: placing the first key divided the ring by zero.
        let routing = RoutingTable::build(
            &(0..3).map(NodeId).collect::<Vec<_>>(),
            AllocationScheme::Balanced,
            3,
        );
        let mut s = DistributedStorage::new(
            routing,
            StorageConfig {
                partitions_per_relation: 0,
            },
        );
        s.register_relation(Relation::partitioned("R", schema()));
        let mut b = UpdateBatch::new();
        b.insert("R", r("a", "1"));
        let err = s.publish(&b).unwrap_err();
        assert!(matches!(err, OrchestraError::StorageInvalid(_)), "{err}");
        assert_eq!(s.latest_epoch(), None);
        assert_eq!(s.version_history("R").count(), 0);
        for n in 0..3 {
            assert_eq!(Kind::ALL.map(|kind| s.held_count(NodeId(n), kind)), [0; 3]);
        }
        // A batch with nothing in it needs no page: it still publishes.
        assert_eq!(s.publish(&UpdateBatch::new()).unwrap(), Epoch(0));
    }

    #[test]
    fn version_resolution_and_cardinality() {
        let mut s = storage(3);
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r("a", "1"));
        s.publish(&b0).unwrap();
        // An unrelated publish advances the global epoch without touching R.
        s.register_relation(Relation::partitioned(
            "S",
            Schema::keyed_on_first(vec![("k", ColumnType::Int)]),
        ));
        let mut b1 = UpdateBatch::new();
        b1.insert("S", Tuple::new(vec![Value::Int(1)]));
        s.publish(&b1).unwrap();

        assert_eq!(s.latest_epoch(), Some(Epoch(1)));
        assert_eq!(s.version_at("R", Epoch(1)), Some(Epoch(0)));
        assert_eq!(s.version_at("R", Epoch(0)), Some(Epoch(0)));
        assert_eq!(s.version_at("S", Epoch(0)), None);
        assert_eq!(s.relation_cardinality("R", Epoch(1)), 1);
        assert_eq!(s.relation_cardinality("S", Epoch(1)), 1);
        assert!(s.version_history("R").eq([Epoch(0)]));
    }

    #[test]
    fn version_at_binary_search_matches_linear_scan() {
        // Regression for the O(history) linear walk: publish a long,
        // gappy history (R changes only on every third global epoch) and
        // check the binary search against the definition at every probe.
        let mut s = storage(3);
        s.register_relation(Relation::partitioned(
            "Other",
            Schema::keyed_on_first(vec![("k", ColumnType::Int)]),
        ));
        for i in 0..60i64 {
            let mut b = UpdateBatch::new();
            if i % 3 == 0 {
                b.insert("R", r(&format!("k{i}"), "v"));
            } else {
                b.insert("Other", Tuple::new(vec![Value::Int(i)]));
            }
            s.publish(&b).unwrap();
        }
        let history = s.version_history("R").collect::<Vec<_>>();
        assert_eq!(history.len(), 20);
        for probe in 0..62u64 {
            let epoch = Epoch(probe);
            let expected = history.iter().rev().find(|e| **e <= epoch).copied();
            assert_eq!(s.version_at("R", epoch), expected, "probe {probe}");
        }
        assert_eq!(s.version_at("Missing", Epoch(10)), None);
    }

    #[test]
    fn data_survives_single_node_failure() {
        let mut s = storage(5);
        let mut b = UpdateBatch::new();
        for i in 0..100 {
            b.insert("R", r(&format!("k{i}"), "v"));
        }
        s.publish(&b).unwrap();

        // Fail one node; every tuple is still reachable through replicas.
        s.mark_failed(NodeId(2));
        let result = s.retrieve("R", Epoch(0), NodeId(0), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 100);
    }

    #[test]
    fn replicated_relation_is_fully_readable_everywhere() {
        let mut s = storage(4);
        s.register_relation(Relation::replicated(
            "Nation",
            Schema::keyed_on_first(vec![("id", ColumnType::Int), ("name", ColumnType::Str)]),
        ));
        let mut b = UpdateBatch::new();
        for i in 0..25 {
            b.insert(
                "Nation",
                Tuple::new(vec![Value::Int(i), Value::str(format!("nation{i}"))]),
            );
        }
        s.publish(&b).unwrap();
        for node in s.routing().nodes() {
            let tuples = s.view().scan_replicated("Nation", Epoch(0), node).unwrap();
            assert_eq!(tuples.len(), 25);
        }
        // scan_replicated refuses partitioned relations.
        assert!(s.view().scan_replicated("R", Epoch(0), NodeId(0)).is_err());
    }

    #[test]
    fn retrieval_traces_messages_and_colocation() {
        let mut s = storage(3);
        let mut b = UpdateBatch::new();
        for i in 0..50 {
            b.insert("R", r(&format!("k{i}"), "v"));
        }
        s.publish(&b).unwrap();
        let result = s.retrieve("R", Epoch(0), NodeId(1), &|_| true).unwrap();
        assert_eq!(result.tuples.len(), 50);
        assert!(result.pages_scanned > 0);
        // The trace contains the coordinator round trip and data shipments.
        assert!(result.messages.len() >= 2 + 50);
    }
}
