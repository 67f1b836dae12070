//! Epoch-to-epoch deltas derived from the versioned index pages.
//!
//! Publication is log-structured: a new epoch creates fresh versions only
//! of the index pages its updates touched and shares every other page
//! with the previous version (Section IV).  That structural sharing makes
//! the *difference* between two epochs directly readable: a partition
//! whose page ID is identical in both versions is untouched, and a
//! changed partition's delta is the set difference of two sorted
//! tuple-ID lists.  No per-update log needs to be retained — the delta is
//! re-derivable from the versioned pages alone, which is also what makes
//! delta scans safely re-runnable during failure recovery.
//!
//! An interval's delta is derived once, as the change set of its page
//! entries (memoized per `(relation, from, to)`), and read in one order:
//! partition by partition, each changed partition's removed versions with
//! sign `-1`, then its added versions with sign `+1`.  A modification is
//! its `-old`/`+new` pair; nothing pairs the two by key.  Two readers walk
//! it:
//!
//! * [`DistributedStorage::delta`] — the whole relation's
//!   [`RelationDelta`]: its signed row count, which reads no tuple (what
//!   the maintenance cost model sizes its decision on), and its signed
//!   rows, each read from a live replica with its key's cached ring
//!   position (what adaptive statistics gather and fold);
//! * [`StorageView::delta_partition_ref`] — the executor path: the signed
//!   rows restricted to one node's hash ranges, with the same
//!   replica-fetch accounting as a full partition scan so the simulation
//!   charges remote lookups to the network.

use crate::distributed::{DistributedStorage, PartitionScan, StorageView};
use crate::page::{PageDescriptor, PageEntries};
use crate::run::StoredRow;
use orchestra_common::{Epoch, Key160, KeyRange, NodeId, OrchestraError, PageEntry, Result};
use std::cell::{Cell, RefCell};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::rc::Rc;

/// The delta of one relation between two epochs: the interval's memoized
/// change set, read under one view of the store.
pub struct RelationDelta<'a> {
    view: StorageView<'a>,
    relation: &'a str,
    changes: Rc<ChangeSet>,
    /// Index pages shared untouched between the two versions (the
    /// structural-sharing win the delta never has to read).
    pub pages_shared: usize,
    /// Index pages that differed and were diffed.
    pub pages_diffed: usize,
}

impl<'a> RelationDelta<'a> {
    /// Number of *signed* rows the delta expands to when pushed through a
    /// maintenance pipeline: one `-1` row per version the interval
    /// removed and one `+1` row per version it added, so an insert or a
    /// delete is one row and a modify two.  This is the cardinality the
    /// maintenance cost model sizes a delta scan with; it reads no tuple.
    pub fn signed_row_count(&self) -> usize {
        (self.changes.partitions.iter())
            .map(|change| change.removed.len() + change.added.len())
            .sum()
    }

    /// The signed rows, per changed partition the removed versions at `-1`
    /// and then the added ones at `+1`, each read when the iterator
    /// reaches it from a live replica that holds it, or looked up the
    /// whole way, and each with the ring position of its key, which its
    /// page entry caches (`hash_values` of the key, computed once when the
    /// version was published).
    pub fn rows(&self) -> impl Iterator<Item = Result<(StoredRow<'a>, i8, Key160)>> + '_ {
        let lookup = self.view.tuple_lookup(self.relation);
        let changes = self.changes.partitions.iter();
        let signed = changes.flat_map(PartitionChange::signed);
        let entries = signed.flat_map(|(entries, sign)| entries.iter().map(move |e| (e, sign)));
        entries.map(move |(entry, sign)| Ok((lookup(entry)?, sign, entry.position)))
    }
}

/// One partition whose page version differs between the two epochs:
/// the page entries (tuple IDs with their cached ring positions, so a
/// delta scan hashes nothing) removed by the interval and added by it,
/// each list in ID order.
struct PartitionChange {
    /// Index pages consulted to diff this partition (1 when only one
    /// version has a page, 2 otherwise).
    pages_read: usize,
    removed: Vec<PageEntry>,
    added: Vec<PageEntry>,
}

impl PartitionChange {
    /// The change's entries with their sign: the removed ones at `-1`,
    /// then the added ones at `+1`.  Walked partition by partition, this
    /// is the one order every reader of a delta sees.
    fn signed(&self) -> [(&[PageEntry], i8); 2] {
        [(&self.removed, -1), (&self.added, 1)]
    }
}

/// Diff two page versions' entries in one two-pointer walk: the entries
/// only in `old` and the entries only in `new`, each still sorted.
/// Copies of an ID pair up one to one: a page that lists an ID twice (a
/// batch touched the key twice) hands both copies to its next version or
/// neither ([`crate::IndexPage::next_version`]), so versions never
/// disagree on the count.  The walk goes a window at a time, and a window
/// both versions reference at the same point of the walk lists the same
/// entries on both sides, so it is skipped whole: a diff costs the windows
/// the interval rewrote, not the page.
pub(crate) fn diff_windows(
    old: &PageEntries,
    new: &PageEntries,
) -> (Vec<PageEntry>, Vec<PageEntry>) {
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    let (mut olds, mut news) = (old.windows(), new.windows());
    // What is left of each side's current window.
    let (mut o, mut n): (&[PageEntry], &[PageEntry]) = (&[], &[]);
    loop {
        while o.is_empty() {
            let Some(window) = olds.next() else { break };
            o = window;
        }
        while n.is_empty() {
            let Some(window) = news.next() else { break };
            n = window;
        }
        if o.is_empty() || n.is_empty() {
            break;
        }
        if std::ptr::eq(o, n) {
            (o, n) = (&[], &[]);
            continue;
        }
        let (mut i, mut j) = (0, 0);
        while let (Some(old), Some(new)) = (o.get(i), n.get(j)) {
            match old.id.cmp(&new.id) {
                Ordering::Less => {
                    removed.push(old.clone());
                    i += 1;
                }
                Ordering::Greater => {
                    added.push(new.clone());
                    j += 1;
                }
                Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
        }
        (o, n) = (&o[i..], &n[j..]);
    }
    removed.extend(o.iter().chain(olds.flatten()).cloned());
    added.extend(n.iter().chain(news.flatten()).cloned());
    (removed, added)
}

/// The derived page diff of one `(relation, from, to)` interval.
struct ChangeSet {
    /// The partitions whose page version differs, in partition order.
    partitions: Vec<PartitionChange>,
    /// Index pages both versions share.
    pages_shared: usize,
}

/// Memo of derived page diffs, keyed by `(relation, from, to)`.
///
/// Epoch versions are immutable once published, so a derived diff never
/// goes stale — the memo needs no invalidation, only capacity discipline
/// (callers with adversarial access patterns can [`DeltaMemo::clear`]).
/// Interior mutability lets the read paths ([`DistributedStorage::delta`]
/// and [`StorageView::delta_partition_ref`], under any view of the store)
/// share one derivation per interval across every consumer — the fan-out
/// property the view registry's per-epoch cost bound rests on.  A derived
/// diff does not depend on the view: whichever replica served a page, the
/// page is the same.  The store is
/// single-threaded by construction (like the simulator), so a `RefCell`
/// suffices.
#[derive(Clone, Default)]
pub(crate) struct DeltaMemo {
    entries: RefCell<HashMap<(String, Epoch, Epoch), Rc<ChangeSet>>>,
    derivations: Cell<u64>,
}

impl DeltaMemo {
    fn clear(&self) {
        self.entries.borrow_mut().clear();
    }
}

impl DistributedStorage {
    /// Number of epoch-interval page diffs derived so far — the memo's
    /// cache misses.  Serving a second view of the same interval does not
    /// move this counter; the subscriptions experiment asserts it stays
    /// O(changed relations) per epoch rather than O(registered views).
    pub fn delta_derivations(&self) -> u64 {
        self.delta_memo.derivations.get()
    }

    /// Drop every memoized page diff (the derivation counter is kept).
    /// The independent-maintenance arm of the subscriptions experiment
    /// uses this to model each view re-deriving its own deltas.
    pub fn clear_delta_memo(&self) {
        self.delta_memo.clear();
    }

    /// The delta `relation` underwent between the snapshots at `from` and
    /// `to`, derived entirely from the versioned index pages (no update
    /// log is consulted) and read under the store's own view.  Deriving
    /// it fetches no tuple; [`RelationDelta::rows`] reads them.
    pub fn delta<'a>(
        &'a self,
        relation: &'a str,
        from: Epoch,
        to: Epoch,
    ) -> Result<RelationDelta<'a>> {
        let view = self.view();
        let changes = view.changed_partitions(relation, from, to)?;
        Ok(RelationDelta {
            view,
            relation,
            pages_shared: changes.pages_shared,
            pages_diffed: changes.partitions.len(),
            changes,
        })
    }

    /// The names of every registered relation whose visible version
    /// differs between the snapshots at `from` and `to` — the relations
    /// a consumer of the interval's deltas needs to ask about at all.
    /// Costs one version-chain walk per relation, never a page diff, so
    /// callers (registry refresh, adaptive statistics maintenance) can
    /// probe cheaply before touching [`Self::delta`].  Names come back
    /// sorted, so consumers that fold per relation stay deterministic.
    pub fn changed_relations(&self, from: Epoch, to: Epoch) -> Vec<String> {
        let mut names: Vec<String> = self
            .relations()
            .filter(|r| self.version_at(r.name(), from) != self.version_at(r.name(), to))
            .map(|r| r.name().to_string())
            .collect();
        names.sort();
        names
    }
}

impl<'a> StorageView<'a> {
    /// The page descriptors of `relation`'s version visible at `epoch`,
    /// ordered by partition (empty when the relation has no version yet).
    fn pages_at(&self, relation: &str, epoch: Epoch) -> Result<&'a [PageDescriptor]> {
        Ok(self
            .version_record(relation, epoch)?
            .map_or(&[], |version| version.pages.as_slice()))
    }

    /// Diff the two versions' page lists, memoized per `(relation, from,
    /// to)`: the first consumer of an interval pays the derivation
    /// ([`DistributedStorage::delta_derivations`] counts those); every
    /// later consumer — another view's delta leg, the cost model, a
    /// re-run during recovery — is handed the same derived diff for free.
    fn changed_partitions(&self, relation: &str, from: Epoch, to: Epoch) -> Result<Rc<ChangeSet>> {
        if from > to {
            return Err(OrchestraError::StorageInvalid(format!(
                "delta of {relation} requested over an inverted interval {from}..{to}"
            )));
        }
        let memo = &self.data.delta_memo;
        let key = (relation.to_string(), from, to);
        if let Some(hit) = memo.entries.borrow().get(&key) {
            return Ok(Rc::clone(hit));
        }
        let derived = Rc::new(self.derive_changed_partitions(relation, from, to)?);
        memo.derivations.set(memo.derivations.get() + 1);
        memo.entries.borrow_mut().insert(key, Rc::clone(&derived));
        Ok(derived)
    }

    /// The un-memoized derivation behind [`Self::changed_partitions`]:
    /// partitions whose page ID is identical in both versions are shared
    /// and skipped; the rest are diffed entry list against entry list,
    /// skipping the windows both versions share ([`diff_windows`]).
    /// Both descriptor lists are ordered by partition and both entry
    /// lists by ID, so everything is a two-pointer walk over borrowed
    /// slices.
    fn derive_changed_partitions(
        &self,
        relation: &str,
        from: Epoch,
        to: Epoch,
    ) -> Result<ChangeSet> {
        let old_pages = self.pages_at(relation, from)?;
        let new_pages = self.pages_at(relation, to)?;
        let mut shared = 0;
        let mut changes = Vec::new();
        let none = PageEntries::default();
        let (mut o, mut n) = (0, 0);
        loop {
            // The next partition on either side: both descriptors when
            // both versions have it.  Pages never disappear across
            // versions (an untouched page is carried forward), but stay
            // defensive: a partition only the old version has is
            // all-removed.
            let (old_desc, new_desc) = match (old_pages.get(o), new_pages.get(n)) {
                (Some(old), Some(new)) => match old.id.partition.cmp(&new.id.partition) {
                    Ordering::Less => (Some(old), None),
                    Ordering::Greater => (None, Some(new)),
                    Ordering::Equal => (Some(old), Some(new)),
                },
                (Some(old), None) => (Some(old), None),
                (None, Some(new)) => (None, Some(new)),
                (None, None) => break,
            };
            o += usize::from(old_desc.is_some());
            n += usize::from(new_desc.is_some());
            if old_desc.map(|d| &d.id) == new_desc.map(|d| &d.id) {
                shared += 1;
                continue;
            }
            let entries_of = |desc: Option<&PageDescriptor>| -> Result<&PageEntries> {
                Ok(match desc {
                    Some(d) => &self.lookup_index_page(d)?.entries,
                    None => &none,
                })
            };
            let (removed, added) = diff_windows(entries_of(old_desc)?, entries_of(new_desc)?);
            changes.push(PartitionChange {
                pages_read: usize::from(old_desc.is_some()) + usize::from(new_desc.is_some()),
                removed,
                added,
            });
        }
        Ok(ChangeSet {
            partitions: changes,
            pages_shared: shared,
        })
    }

    /// Scan the *delta* of `relation` between the snapshots at `from` and
    /// `to`, restricted to tuple-key hashes in `ranges`, on behalf of
    /// `node` — the storage half of the engine's maintenance scan.
    /// Versions added by the interval come back with sign `+1`, versions
    /// removed by it with sign `-1`; old versions are still resolvable
    /// because the store is log-structured, so the scan (like a full
    /// partition scan) can be deterministically re-run over inherited
    /// ranges during failure recovery.  The rows come in the order
    /// [`RelationDelta::rows`] gives them.  Like
    /// [`Self::scan_partition_ref`] it filters by cached ring position and
    /// names each tuple's row in the relation's log.
    pub fn delta_partition_ref(
        &self,
        relation: &str,
        from: Epoch,
        to: Epoch,
        node: NodeId,
        ranges: &[KeyRange],
    ) -> Result<PartitionScan<(StoredRow<'a>, i8)>> {
        let mut scan = PartitionScan::default();
        let derived = self.changed_partitions(relation, from, to)?;
        let local = self.local_scan(relation, node);
        for change in &derived.partitions {
            scan.pages_read += change.pages_read;
            for (entries, sign) in change.signed() {
                for entry in entries {
                    if ranges.iter().any(|r| r.contains(entry.position)) {
                        let tuple = self.scan_tuple(&mut scan, local, relation, entry, node)?;
                        scan.tuples.push((tuple, sign));
                    }
                }
            }
        }
        Ok(scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributed::StorageConfig;
    use crate::update::UpdateBatch;
    use orchestra_common::tuple::hash_values;
    use orchestra_common::{ColumnType, NodeId, NodeSet, Relation, Schema, Tuple, Value};
    use orchestra_substrate::{AllocationScheme, RoutingTable};

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
        s.register_relation(Relation::partitioned(
            "R",
            Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Str)]),
        ));
        s
    }

    fn r(k: i64, v: &str) -> Tuple {
        Tuple::new(vec![Value::Int(k), Value::str(v)])
    }

    /// Every signed row of `delta`, as the row it reads back as.
    fn signed_tuples(delta: &RelationDelta<'_>) -> Vec<(Tuple, i8)> {
        let rows = (delta.rows()).map(|row| {
            let (row, sign, position) = row?;
            assert_eq!(position, hash_values(row.tuple().key(1)), "{row:?}");
            Ok((row.tuple(), sign))
        });
        rows.collect::<Result<_>>().unwrap()
    }

    #[test]
    fn delta_classifies_insert_modify_delete() {
        let mut s = storage(4);
        let mut b0 = UpdateBatch::new();
        for k in 0..50 {
            b0.insert("R", r(k, "old"));
        }
        let e0 = s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.insert("R", r(100, "fresh"))
            .modify("R", r(3, "changed"))
            .delete("R", vec![Value::Int(7)]);
        let e1 = s.publish(&b1).unwrap();
        let mut failing = s.clone();
        failing.mark_failed(NodeId(1));

        for store in [&s, &failing] {
            let delta = store.delta("R", e0, e1).unwrap();
            assert_eq!(delta.signed_row_count(), 1 + 1 + 2);
            let mut tuples = signed_tuples(&delta);
            tuples.sort();
            let expected = [
                (r(3, "changed"), 1),
                (r(3, "old"), -1),
                (r(7, "old"), -1),
                (r(100, "fresh"), 1),
            ];
            assert_eq!(tuples, expected);
            // Untouched partitions were shared, not diffed.
            assert!(delta.pages_shared > 0, "{} shared", delta.pages_shared);
            assert!(delta.pages_diffed <= 3, "{} diffed", delta.pages_diffed);

            // The same stored versions, with the same signs, as the delta
            // scans of every node's ranges; a failed node's ranges are
            // scanned on its behalf by node 0.
            let mut counts: HashMap<(StoredRow<'_>, i8), i32> = HashMap::new();
            for row in delta.rows() {
                let (row, sign, _) = row.unwrap();
                *counts.entry((row, sign)).or_default() += 1;
            }
            let view = store.view();
            for node in store.routing().nodes() {
                let ranges = store.routing().ranges_of(node);
                let scanner = if store.failed_nodes().contains(node) {
                    NodeId(0)
                } else {
                    node
                };
                let scan = view.delta_partition_ref("R", e0, e1, scanner, &ranges);
                for row in scan.unwrap().tuples {
                    *counts.entry(row).or_default() -= 1;
                }
            }
            assert!(counts.values().all(|c| *c == 0), "{counts:?}");
        }
    }

    #[test]
    fn empty_interval_and_unborn_relation() {
        let mut s = storage(3);
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r(1, "a"));
        let e0 = s.publish(&b0).unwrap();
        assert_eq!(s.delta("R", e0, e0).unwrap().signed_row_count(), 0);
        // Before the relation's first version everything is an insert.
        s.register_relation(Relation::partitioned(
            "S",
            Schema::keyed_on_first(vec![("k", ColumnType::Int)]),
        ));
        let mut b1 = UpdateBatch::new();
        b1.insert("S", Tuple::new(vec![Value::Int(9)]));
        let e1 = s.publish(&b1).unwrap();
        let delta = s.delta("S", e0, e1).unwrap();
        assert_eq!(delta.signed_row_count(), 1);
        assert_eq!(
            signed_tuples(&delta),
            [(Tuple::new(vec![Value::Int(9)]), 1)]
        );
        // Inverted intervals are rejected.
        assert!(s.delta("R", e1, e0).is_err());
    }

    #[test]
    fn changed_relations_reports_only_touched_relations() {
        let mut s = storage(3);
        s.register_relation(Relation::partitioned(
            "S",
            Schema::keyed_on_first(vec![("k", ColumnType::Int)]),
        ));
        // A baseline epoch before either relation holds data.
        let base = s.publish(&UpdateBatch::new()).unwrap();
        let mut b0 = UpdateBatch::new();
        b0.insert("R", r(1, "a"));
        b0.insert("S", Tuple::new(vec![Value::Int(9)]));
        let e0 = s.publish(&b0).unwrap();
        // Second epoch touches only R.
        let mut b1 = UpdateBatch::new();
        b1.insert("R", r(2, "b"));
        let e1 = s.publish(&b1).unwrap();

        assert_eq!(s.changed_relations(base, e0), vec!["R", "S"]);
        assert_eq!(s.changed_relations(e0, e1), vec!["R"]);
        assert!(s.changed_relations(e1, e1).is_empty());
        // Probing is version-chain walks only — no delta derivations.
        assert_eq!(s.delta_derivations(), 0);
    }

    #[test]
    fn delta_partition_covers_the_signed_rows_exactly_once() {
        let mut s = storage(4);
        let mut b0 = UpdateBatch::new();
        for k in 0..120 {
            b0.insert("R", r(k, "v0"));
        }
        let e0 = s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        for k in 0..10 {
            b1.modify("R", r(k, "v1"));
        }
        for k in 200..220 {
            b1.insert("R", r(k, "new"));
        }
        for k in 110..115 {
            b1.delete("R", vec![Value::Int(k)]);
        }
        let e1 = s.publish(&b1).unwrap();

        // Scanning every node's own ranges yields the full signed delta
        // exactly once.
        let mut rows: Vec<(Tuple, i8)> = Vec::new();
        for node in s.routing().nodes() {
            let ranges = s.routing().ranges_of(node);
            let scan = s.view().delta_partition_ref("R", e0, e1, node, &ranges);
            let signed = scan.unwrap().tuples.into_iter();
            rows.extend(signed.map(|(tuple, sign)| (tuple.tuple(), sign)));
        }
        assert_eq!(rows.len(), 10 * 2 + 20 + 5);
        let positives = rows.iter().filter(|(_, s)| *s == 1).count();
        let negatives = rows.iter().filter(|(_, s)| *s == -1).count();
        assert_eq!(positives, 30);
        assert_eq!(negatives, 15);
        rows.sort();
        rows.dedup();
        assert_eq!(rows.len(), 45, "no duplicates across nodes");
        // Sanity: applying the signed delta to the old snapshot yields
        // the new snapshot.
        let mut state: Vec<Tuple> = s.retrieve("R", e0, NodeId(0), &|_| true).unwrap().tuples;
        for (tuple, sign) in &rows {
            if *sign > 0 {
                state.push(tuple.clone());
            } else {
                let pos = state.iter().position(|t| t == tuple).expect("present");
                state.swap_remove(pos);
            }
        }
        state.sort();
        let mut expected = s.retrieve("R", e1, NodeId(0), &|_| true).unwrap().tuples;
        expected.sort();
        assert_eq!(state, expected);
    }

    #[test]
    fn delta_derivation_is_memoized_and_counted() {
        let mut s = storage(4);
        let mut b0 = UpdateBatch::new();
        for k in 0..60 {
            b0.insert("R", r(k, "v0"));
        }
        let e0 = s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        for k in 0..6 {
            b1.modify("R", r(k, "v1"));
        }
        let e1 = s.publish(&b1).unwrap();

        assert_eq!(s.delta_derivations(), 0);
        let first = s.delta("R", e0, e1).unwrap().signed_row_count();
        assert_eq!(s.delta_derivations(), 1, "first consumer derives");
        let second = s.delta("R", e0, e1).unwrap().signed_row_count();
        assert_eq!(s.delta_derivations(), 1, "second consumer is a memo hit");
        assert_eq!(first, second);

        // The signed scan path shares the same derivation, under the
        // store's own view and under one that fails a node alike.
        let failing = s.view().with_failed(NodeSet::singleton(NodeId(1)));
        for view in [s.view(), failing] {
            for node in s.routing().nodes() {
                let ranges = s.routing().ranges_of(node);
                view.delta_partition_ref("R", e0, e1, node, &ranges)
                    .unwrap();
            }
        }
        assert_eq!(s.delta_derivations(), 1, "delta scans reuse the diff");

        // A new interval is a new derivation.
        let mut b2 = UpdateBatch::new();
        b2.insert("R", r(300, "new"));
        let e2 = s.publish(&b2).unwrap();
        s.delta("R", e1, e2).unwrap();
        assert_eq!(s.delta_derivations(), 2);

        // Clearing the memo forces re-derivation; the result is bit-equal.
        s.clear_delta_memo();
        let rederived = s.delta("R", e0, e1).unwrap();
        assert_eq!(s.delta_derivations(), 3);
        assert_eq!(rederived.signed_row_count(), first);

        // A clone carries the memo but counts its own derivations
        // without touching the original.
        let scratch = s.clone();
        scratch.delta("R", e0, e1).unwrap();
        assert_eq!(
            scratch.delta_derivations(),
            3,
            "clone hits the carried memo"
        );
        assert_eq!(s.delta_derivations(), 3, "original counter is untouched");
    }

    #[test]
    fn delta_survives_a_node_failure() {
        let mut s = storage(5);
        let mut b0 = UpdateBatch::new();
        for k in 0..80 {
            b0.insert("R", r(k, "v0"));
        }
        let e0 = s.publish(&b0).unwrap();
        let mut b1 = UpdateBatch::new();
        for k in 0..8 {
            b1.modify("R", r(k, "v1"));
        }
        let e1 = s.publish(&b1).unwrap();
        let full = signed_tuples(&s.delta("R", e0, e1).unwrap());
        assert_eq!(full.len(), 8 * 2);
        s.mark_failed(NodeId(2));
        let after = s.delta("R", e0, e1).unwrap();
        assert_eq!(after.signed_row_count(), full.len());
        assert_eq!(signed_tuples(&after), full, "replicas serve every row");
    }
}
