//! The local store held by one participant.
//!
//! Each node keeps the slices of the four distributed structures
//! (coordinators, index pages, tuple data, inverse entries) whose ring
//! positions fall in its ranges — plus replicas of its neighbours' slices.
//! In the paper this state lives in BerkeleyDB; here it is an in-memory
//! ordered map per relation, which preserves the access pattern the cost
//! model charges for (point lookups by tuple ID, range scans by tuple-key
//! hash).
//!
//! ## Shared, immutable contents
//!
//! Everything published is immutable — a coordinator record, a page
//! version and a tuple version never change after the epoch that created
//! them — so a store holds `Arc`s, not bodies.  Writing an item to its
//! owner and its replicas (publication, anti-entropy) hands each of them
//! a pointer to the *same* allocation: a replication-3 cluster holds one
//! copy of every page and tuple, referenced three times.  Cloning a store
//! copies the maps of pointers, never the data behind them, and a clone
//! that is later written to (or [`NodeStore::clear`]ed) cannot disturb
//! the store it was cloned from.
//!
//! Tuple versions are indexed by ring position alone — a `Key160` is
//! `Copy`, so a lookup builds no composite key and clones no tuple ID —
//! with the few versions of the keys at that position in a short list
//! sorted by ID.

use crate::coordinator::{CoordinatorKey, RelationVersion};
use crate::page::{IndexPage, PageId};
use orchestra_common::{Key160, KeyRange, NodeId, Tuple, TupleId};
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// One stored tuple version: the tuple and the ID it is found by.
/// Immutable once published; every replica shares one allocation.
#[derive(Debug, PartialEq, Eq)]
pub struct TupleVersion {
    /// The version's ID (key attribute values and creation epoch).
    pub id: TupleId,
    /// The full tuple.
    pub tuple: Tuple,
}

/// The tuple versions of one relation: ring position -> versions of the
/// keys hashing there, sorted by ID.  Ordered by position so partition
/// scans walk a contiguous range, as the paper's on-disk layout does
/// ("tuples from each index page are stored nearby on disk, and are
/// retrieved in a single pass through the hash ID range for that page").
type RelationData = BTreeMap<Key160, Vec<Arc<TupleVersion>>>;

/// A borrowed view of the tuple versions one node holds of one relation
/// ([`NodeStore::relation_tuples`]): a scan finds the relation by name
/// once and then resolves each page entry against the view, instead of
/// hashing the relation's name again for every tuple.
#[derive(Clone, Copy, Debug)]
pub struct RelationTuples<'a>(&'a RelationData);

impl<'a> RelationTuples<'a> {
    /// Fetch a tuple version by its ID and the ring position of its key.
    pub fn tuple_version(&self, position: Key160, id: &TupleId) -> Option<&'a Arc<TupleVersion>> {
        let versions = self.0.get(&position)?;
        let at = versions.binary_search_by(|v| v.id.cmp(id)).ok()?;
        Some(&versions[at])
    }

    /// Fetch a tuple by its version ID and the ring position of its key.
    pub fn tuple(&self, position: Key160, id: &TupleId) -> Option<&'a Tuple> {
        self.tuple_version(position, id).map(|v| &v.tuple)
    }
}

/// The state stored locally at a single node.
#[derive(Clone, Debug, Default)]
pub struct NodeStore {
    node: Option<NodeId>,
    coordinators: HashMap<CoordinatorKey, Arc<RelationVersion>>,
    index_pages: HashMap<PageId, Arc<IndexPage>>,
    data: HashMap<String, RelationData>,
    /// Latest page version per relation and partition — the inverse-node
    /// state used to find the page that lists the current version of a
    /// tuple when applying a modification.
    inverse: HashMap<String, HashMap<u32, PageId>>,
}

/// `map[name]`, created on first use — without allocating a `String`
/// for a name the map already has.
fn entry_by_name<'a, V: Default>(map: &'a mut HashMap<String, V>, name: &str) -> &'a mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("present or just inserted")
}

impl NodeStore {
    /// An empty store belonging to `node`.
    pub fn new(node: NodeId) -> NodeStore {
        NodeStore {
            node: Some(node),
            ..NodeStore::default()
        }
    }

    /// The node this store belongs to, if known.
    pub fn node(&self) -> Option<NodeId> {
        self.node
    }

    // ----- relation coordinator state -------------------------------------

    /// Store a relation-version record.
    pub fn put_coordinator(&mut self, version: Arc<RelationVersion>) {
        self.coordinators.insert(version.key.clone(), version);
    }

    /// Fetch a relation-version record.
    pub fn coordinator(&self, key: &CoordinatorKey) -> Option<&Arc<RelationVersion>> {
        self.coordinators.get(key)
    }

    // ----- index node state ------------------------------------------------

    /// Store an index page body.
    pub fn put_index_page(&mut self, page: Arc<IndexPage>) {
        self.index_pages.insert(page.id.clone(), page);
    }

    /// Fetch an index page body.
    pub fn index_page(&self, id: &PageId) -> Option<&Arc<IndexPage>> {
        self.index_pages.get(id)
    }

    // ----- data storage node state ------------------------------------------

    /// Store a tuple version at the ring position of its key (replacing
    /// a version with the same ID).
    pub fn put_tuple(&mut self, relation: &str, position: Key160, version: Arc<TupleVersion>) {
        self.put_tuples(relation, [(position, version)]);
    }

    /// [`NodeStore::put_tuple`] for many versions of one relation, which
    /// is looked up by name once.
    pub(crate) fn put_tuples(
        &mut self,
        relation: &str,
        versions: impl IntoIterator<Item = (Key160, Arc<TupleVersion>)>,
    ) {
        let data = entry_by_name(&mut self.data, relation);
        for (position, version) in versions {
            let held = data.entry(position).or_default();
            match held.binary_search_by(|v| v.id.cmp(&version.id)) {
                Ok(at) => held[at] = version,
                Err(at) => held.insert(at, version),
            }
        }
    }

    /// The tuple versions held of `relation`, or `None` when the node
    /// holds none: one lookup by name for any number of tuples.
    pub fn relation_tuples(&self, relation: &str) -> Option<RelationTuples<'_>> {
        self.data.get(relation).map(RelationTuples)
    }

    /// Fetch a tuple version by its ID and the ring position of its key.
    pub fn tuple_version(
        &self,
        relation: &str,
        position: Key160,
        id: &TupleId,
    ) -> Option<&Arc<TupleVersion>> {
        self.relation_tuples(relation)?.tuple_version(position, id)
    }

    /// Fetch a tuple by its version ID and the ring position of its key.
    pub fn tuple(&self, relation: &str, position: Key160, id: &TupleId) -> Option<&Tuple> {
        self.tuple_version(relation, position, id).map(|v| &v.tuple)
    }

    /// Iterate over all tuple versions of `relation` whose key hash falls
    /// in `range` (every version ever stored — callers intersect with an
    /// index page to get a consistent snapshot).
    pub fn scan_hash_range<'a>(
        &'a self,
        relation: &str,
        range: &KeyRange,
    ) -> impl Iterator<Item = (&'a Key160, &'a TupleVersion)> + 'a {
        let range = *range;
        self.data.get(relation).into_iter().flat_map(move |map| {
            map.iter()
                .filter(move |(position, _)| range.contains(**position))
                .flat_map(|(position, versions)| versions.iter().map(move |v| (position, &**v)))
        })
    }

    /// All tuple versions of `relation` stored locally.
    pub fn all_tuples<'a>(&'a self, relation: &str) -> impl Iterator<Item = &'a TupleVersion> + 'a {
        self.scan_hash_range(relation, &KeyRange::full())
            .map(|(_, v)| v)
    }

    // ----- inverse node state -----------------------------------------------

    /// Record that `page` is the latest version of `(relation, partition)`.
    pub fn put_inverse(&mut self, relation: &str, partition: u32, page: PageId) {
        entry_by_name(&mut self.inverse, relation).insert(partition, page);
    }

    /// The latest page version of `(relation, partition)` known here.
    pub fn inverse(&self, relation: &str, partition: u32) -> Option<&PageId> {
        self.inverse.get(relation)?.get(&partition)
    }

    // ----- bookkeeping --------------------------------------------------------

    /// Number of coordinator records held.
    pub fn coordinator_count(&self) -> usize {
        self.coordinators.len()
    }

    /// Number of index pages held.
    pub fn index_page_count(&self) -> usize {
        self.index_pages.len()
    }

    /// Number of tuple versions held (across all relations).
    pub fn tuple_count(&self) -> usize {
        self.data
            .values()
            .flat_map(BTreeMap::values)
            .map(Vec::len)
            .sum()
    }

    /// Drop everything — used to model the permanent loss of a failed
    /// node's local storage.
    pub fn clear(&mut self) {
        self.coordinators.clear();
        self.index_pages.clear();
        self.data.clear();
        self.inverse.clear();
    }

    /// Iterate over every coordinator record (used by anti-entropy
    /// replication).
    pub fn coordinators(&self) -> impl Iterator<Item = &Arc<RelationVersion>> {
        self.coordinators.values()
    }

    /// Iterate over every index page (used by anti-entropy replication).
    pub fn index_pages(&self) -> impl Iterator<Item = &Arc<IndexPage>> {
        self.index_pages.values()
    }

    /// Iterate over every stored tuple version with its relation and ring
    /// position.
    pub fn tuples_with_relation(&self) -> impl Iterator<Item = (&str, Key160, &Arc<TupleVersion>)> {
        self.data.iter().flat_map(|(rel, map)| {
            map.iter().flat_map(move |(position, versions)| {
                versions.iter().map(move |v| (rel.as_str(), *position, v))
            })
        })
    }

    /// The names of the relations this store holds tuple versions of, in
    /// no particular order.
    pub fn relation_names(&self) -> impl Iterator<Item = &str> {
        self.data.keys().map(String::as_str)
    }

    /// The tuple versions of `relation` at the ring positions within
    /// `span`, in position order: each occupied position with the
    /// versions of the keys hashing there, sorted by ID.  Two stores'
    /// holdings over one arc can be compared by merging these (used by
    /// anti-entropy replication).
    pub fn versions_in(
        &self,
        relation: &str,
        span: (Bound<Key160>, Bound<Key160>),
    ) -> impl Iterator<Item = (Key160, &[Arc<TupleVersion>])> + Clone {
        self.data
            .get(relation)
            .into_iter()
            .flat_map(move |map| map.range(span))
            .map(|(position, versions)| (*position, versions.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{partition_range, PageId};
    use orchestra_common::{Epoch, Value};

    fn version(k: i64, epoch: u64) -> (Key160, Arc<TupleVersion>) {
        let tuple = Tuple::new(vec![Value::Int(k), Value::str(format!("v{k}@{epoch}"))]);
        let id = tuple.id(1, Epoch(epoch));
        (id.hash_key(), Arc::new(TupleVersion { id, tuple }))
    }

    #[test]
    fn tuple_storage_and_lookup() {
        let mut s = NodeStore::new(NodeId(0));
        let (h, v) = version(5, 0);
        s.put_tuple("R", h, Arc::clone(&v));
        assert_eq!(s.tuple("R", h, &v.id), Some(&v.tuple));
        assert_eq!(s.tuple("S", h, &v.id), None);
        assert_eq!(s.tuple_count(), 1);
        let missing = TupleId::new(vec![Value::Int(6)], Epoch(0));
        assert_eq!(s.tuple("R", missing.hash_key(), &missing), None);
    }

    #[test]
    fn versions_of_one_key_share_a_position_and_stay_sorted() {
        let mut s = NodeStore::new(NodeId(0));
        // Out of order, with one version written twice.
        for epoch in [2, 0, 3, 0, 1] {
            let (h, v) = version(5, epoch);
            s.put_tuple("R", h, v);
        }
        assert_eq!(s.tuple_count(), 4);
        let epochs: Vec<u64> = s.all_tuples("R").map(|v| v.id.epoch.0).collect();
        assert_eq!(epochs, vec![0, 1, 2, 3]);
        for epoch in 0..4 {
            let (h, v) = version(5, epoch);
            assert_eq!(s.tuple("R", h, &v.id), Some(&v.tuple));
        }
        let (h, absent) = version(5, 9);
        assert_eq!(s.tuple("R", h, &absent.id), None);
    }

    #[test]
    fn hash_range_scan_filters_by_range() {
        let mut s = NodeStore::new(NodeId(0));
        let mut inside = 0;
        let range = partition_range(0, 2);
        for k in 0..50 {
            let (h, v) = version(k, 0);
            if range.contains(h) {
                inside += 1;
            }
            s.put_tuple("R", h, v);
        }
        let scanned = s.scan_hash_range("R", &range).count();
        assert_eq!(scanned, inside);
        assert_eq!(s.all_tuples("R").count(), 50);
        assert_eq!(s.scan_hash_range("T", &range).count(), 0);
    }

    #[test]
    fn versions_in_walks_a_span_in_position_order() {
        let mut s = NodeStore::new(NodeId(0));
        let mut positions = Vec::new();
        for k in 0..40 {
            let (h, v) = version(k, 0);
            positions.push(h);
            s.put_tuple("R", h, v);
        }
        let (h, second) = version(7, 3);
        s.put_tuple("R", h, second);
        s.put_tuple("S", h, version(7, 0).1);
        positions.sort_unstable();
        let mut names: Vec<&str> = s.relation_names().collect();
        names.sort_unstable();
        assert_eq!(names, ["R", "S"]);

        let everything = (Bound::Unbounded, Bound::Unbounded);
        let walked: Vec<Key160> = s.versions_in("R", everything).map(|(p, _)| p).collect();
        assert_eq!(walked, positions);
        let held: usize = s.versions_in("R", everything).map(|(_, v)| v.len()).sum();
        assert_eq!(held, 41);
        let (_, at_h) = s
            .versions_in("R", everything)
            .find(|(p, _)| *p == h)
            .unwrap();
        assert_eq!(
            at_h.iter().map(|v| v.id.epoch.0).collect::<Vec<_>>(),
            [0, 3]
        );

        // Start inclusive, end exclusive, as an arc of the ring is.
        let span = (
            Bound::Included(positions[10]),
            Bound::Excluded(positions[20]),
        );
        let inside: Vec<Key160> = s.versions_in("R", span).map(|(p, _)| p).collect();
        assert_eq!(inside, positions[10..20]);
        assert_eq!(s.versions_in("T", everything).count(), 0);
    }

    #[test]
    fn coordinator_index_and_inverse_round_trip() {
        let mut s = NodeStore::new(NodeId(1));
        let key = CoordinatorKey::new("R", Epoch(0));
        let page = Arc::new(IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 4),
            vec![],
        ));
        s.put_coordinator(Arc::new(RelationVersion::new(
            key.clone(),
            vec![page.descriptor()],
        )));
        s.put_index_page(Arc::clone(&page));
        s.put_inverse("R", 0, page.id.clone());
        assert!(s.coordinator(&key).is_some());
        assert!(s.coordinator(&CoordinatorKey::new("R", Epoch(1))).is_none());
        assert_eq!(s.index_page(&page.id), Some(&page));
        assert_eq!(s.inverse("R", 0), Some(&page.id));
        assert_eq!(s.inverse("R", 1), None);
        assert_eq!(s.inverse("S", 0), None);
        assert_eq!(s.coordinator_count(), 1);
        assert_eq!(s.index_page_count(), 1);
    }

    #[test]
    fn clear_wipes_everything() {
        let mut s = NodeStore::new(NodeId(0));
        let (h, v) = version(1, 0);
        s.put_tuple("R", h, v);
        s.put_index_page(Arc::new(IndexPage::new(
            PageId::new("R", Epoch(0), 0),
            partition_range(0, 1),
            vec![],
        )));
        s.clear();
        assert_eq!(s.tuple_count(), 0);
        assert_eq!(s.index_page_count(), 0);
        assert_eq!(s.coordinator_count(), 0);
    }

    #[test]
    fn a_cloned_store_shares_contents_but_not_fate() {
        let mut s = NodeStore::new(NodeId(0));
        let (h, v) = version(1, 0);
        s.put_tuple("R", h, Arc::clone(&v));
        let mut copy = s.clone();
        // One allocation, referenced by the test, the store and its clone.
        assert_eq!(Arc::strong_count(&v), 3);
        copy.clear();
        assert_eq!(Arc::strong_count(&v), 2);
        assert_eq!(s.tuple("R", h, &v.id), Some(&v.tuple));
    }
}
