//! One-hop routing tables and snapshots.
//!
//! "Recent peer-to-peer research has shown that storing a complete routing
//! table (describing all other nodes) at each node provides superior
//! performance for up to thousands of nodes" (Section III-B).  The
//! substrate therefore keeps a *full* [`RoutingTable`]: an ordered list of
//! range assignments covering the entire ring, plus the ring positions of
//! all live nodes (needed for neighbour-based replica placement).
//!
//! Queries never consult the live table directly: the initiator takes a
//! [`RoutingSnapshot`] (an immutable, shared copy) and disseminates it
//! with the plan, so that every participant uses the same assignment of
//! hash values to nodes for the lifetime of the computation
//! (Section III-C / V-C).  After a failure, [`RoutingTable::reassign_failed`]
//! derives the recovery table in which the failed nodes' ranges are split
//! evenly among the surviving replica holders (Section V-D, stage 1).

use crate::allocation::AllocationScheme;
use crate::replication::{zone_of, ReplicationPolicy};
use crate::ring::{sorted_ring, RingNode};
use orchestra_common::{Key160, KeyRange, NodeId, NodeSet, OrchestraError, Result};
use std::sync::Arc;

/// One entry of the routing table: a contiguous arc of the ring and the
/// node responsible for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RangeAssignment {
    /// The arc of the key ring.
    pub range: KeyRange,
    /// The node that owns (stores and serves) keys in the arc.
    pub owner: NodeId,
}

/// A complete assignment of the key ring to live nodes.
///
/// Immutable once built; membership changes produce *new* tables (see
/// [`crate::MemberView::snapshot`]).
///
/// Every key of one entry has the same owner and so the same replica
/// set, and storage asks for a replica set on every write and every
/// lookup.  The sets are therefore computed once per entry, when the
/// table is built ([`RoutingTable::build_with_policy`],
/// [`RoutingTable::reassign_failed`]) — a ring walk of `r` steps per
/// entry from the owner's ring position, found through an index by node
/// id — and stored flat, so [`RoutingTable::replicas_of`] is a binary
/// search and a slice.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RoutingTable {
    /// Range assignments sorted by range start; together they tile the ring.
    entries: Vec<RangeAssignment>,
    /// Live nodes sorted by ring position (used for neighbour replication).
    ring: Vec<RingNode>,
    /// Replication factor `r`: every item lives at its owner plus
    /// ⌊r/2⌋ clockwise and ⌊r/2⌋ counter-clockwise ring neighbours.
    replication_factor: usize,
    /// The placement policy that chose `replication_factor` and shapes
    /// the replica walk (zone-aware for geo-spread deployments).
    policy: ReplicationPolicy,
    /// The allocation scheme that produced the primary ownership ranges.
    scheme: AllocationScheme,
    /// The replica sets of all entries, back to back: entry `i`'s set is
    /// `replicas[bounds[i]..bounds[i + 1]]`, owner first.
    replicas: Vec<NodeId>,
    bounds: Vec<u32>,
}

/// An immutable, cheaply shareable snapshot of a routing table, taken by a
/// query initiator and shipped with the query plan.
pub type RoutingSnapshot = Arc<RoutingTable>;

impl RoutingTable {
    /// Build a routing table for `nodes` under `scheme` with the given
    /// replication factor (the paper uses small factors such as 3).
    ///
    /// Panics if `nodes` is empty or `replication_factor == 0`.
    pub fn build(
        nodes: &[NodeId],
        scheme: AllocationScheme,
        replication_factor: usize,
    ) -> RoutingTable {
        assert!(replication_factor >= 1, "replication factor must be >= 1");
        Self::build_with_policy(
            nodes,
            scheme,
            ReplicationPolicy::FixedFactor(replication_factor),
        )
    }

    /// Build a routing table whose replication degree and placement are
    /// driven by `policy` (see [`ReplicationPolicy`]).  With
    /// [`ReplicationPolicy::FixedFactor`] this is byte-for-byte identical
    /// to [`RoutingTable::build`]; the other policies derive the degree
    /// from the membership size and, for geo-spread, constrain the replica
    /// walk to cover failure zones.
    ///
    /// Panics if `nodes` is empty.
    pub fn build_with_policy(
        nodes: &[NodeId],
        scheme: AllocationScheme,
        policy: ReplicationPolicy,
    ) -> RoutingTable {
        let replication_factor = match policy {
            // Preserve the historical contract: a fixed factor is stored as
            // given (replica walks clamp to the ring themselves), so every
            // pre-policy figure stays bit-identical.
            ReplicationPolicy::FixedFactor(f) => f.max(1),
            _ => policy.factor_for(nodes.len()),
        };
        let mut entries: Vec<RangeAssignment> = scheme
            .allocate(nodes)
            .into_iter()
            .map(|(owner, range)| RangeAssignment { range, owner })
            .collect();
        entries.sort_by_key(|e| e.range.start);
        RoutingTable::with_replica_sets(
            entries,
            sorted_ring(nodes),
            replication_factor,
            policy,
            scheme,
        )
    }

    /// Assemble a table and compute the replica set of every entry: the
    /// owner's ring position comes from an index by node id, so each set
    /// costs one walk of about `r` ring steps.
    fn with_replica_sets(
        entries: Vec<RangeAssignment>,
        ring: Vec<RingNode>,
        replication_factor: usize,
        policy: ReplicationPolicy,
        scheme: AllocationScheme,
    ) -> RoutingTable {
        let mut table = RoutingTable {
            entries,
            ring,
            replication_factor,
            policy,
            scheme,
            replicas: Vec::new(),
            bounds: Vec::new(),
        };
        let slots = table.ring.iter().map(|r| r.node.index() + 1).max();
        let mut ring_position = vec![None; slots.unwrap_or(0)];
        for (pos, r) in table.ring.iter().enumerate() {
            ring_position[r.node.index()] = Some(pos);
        }
        let degree = replication_factor.min(table.ring.len());
        let mut replicas = Vec::with_capacity(table.entries.len() * degree);
        let mut bounds = Vec::with_capacity(table.entries.len() + 1);
        bounds.push(0);
        for entry in &table.entries {
            match ring_position.get(entry.owner.index()).copied().flatten() {
                Some(pos) => table.walk_replicas(pos, &mut replicas),
                None => replicas.push(entry.owner),
            }
            bounds.push(replicas.len() as u32);
        }
        table.replicas = replicas;
        table.bounds = bounds;
        table
    }

    /// The placement policy this table was built with.
    pub fn policy(&self) -> ReplicationPolicy {
        self.policy
    }

    /// The allocation scheme this table was built with.
    pub fn scheme(&self) -> AllocationScheme {
        self.scheme
    }

    /// The configured replication factor.
    pub fn replication_factor(&self) -> usize {
        self.replication_factor
    }

    /// All range assignments, sorted by range start.
    pub fn entries(&self) -> &[RangeAssignment] {
        &self.entries
    }

    /// The live nodes, in ring order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.ring.iter().map(|r| r.node).collect()
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.ring.len()
    }

    /// Is `node` a member of this table?
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.ring.iter().any(|r| r.node == node)
    }

    /// The node that owns `key` under this table.
    pub fn owner_of(&self, key: Key160) -> NodeId {
        self.entries[self.entry_of(key)].owner
    }

    /// The index of the entry whose range holds `key`.
    fn entry_of(&self, key: Key160) -> usize {
        debug_assert!(!self.entries.is_empty());
        // Entries are sorted by start and tile the ring; the owner is the
        // entry with the greatest start <= key, or (if key precedes every
        // start) the final, wrapping entry.
        let idx = match self.entries.binary_search_by(|e| e.range.start.cmp(&key)) {
            Ok(i) => i,
            Err(0) => self.entries.len() - 1,
            Err(i) => i - 1,
        };
        if self.entries[idx].range.contains(key) {
            idx
        } else {
            // Fall back to a scan; only reachable if ranges do not tile the
            // ring, which the constructors guarantee against.
            self.entries
                .iter()
                .position(|e| e.range.contains(key))
                .unwrap_or(idx)
        }
    }

    /// All ranges owned by `node` (a freshly built table has exactly one;
    /// recovery tables may assign several).
    pub fn ranges_of(&self, node: NodeId) -> Vec<KeyRange> {
        self.entries
            .iter()
            .filter(|e| e.owner == node)
            .map(|e| e.range)
            .collect()
    }

    /// The replica set for `key`: its owner plus ⌊r/2⌋ ring neighbours in
    /// each direction (deduplicated, so small rings yield fewer copies).
    /// The owner is always the first element.  Computed when the table
    /// was built: this is a lookup, not a walk.
    pub fn replicas_of(&self, key: Key160) -> &[NodeId] {
        self.entry_replicas(self.entry_of(key))
    }

    /// The replica set of entry `index` of [`RoutingTable::entries`]
    /// (its owner's, owner first).
    pub fn entry_replicas(&self, index: usize) -> &[NodeId] {
        &self.replicas[self.bounds[index] as usize..self.bounds[index + 1] as usize]
    }

    /// The replica set for data owned by `node` (the node itself first),
    /// walked on the ring for this call — what every entry `node` owns
    /// has as its [`RoutingTable::entry_replicas`].
    ///
    /// Under a geo-spread policy the neighbour walk is zone-aware: a ring
    /// neighbour is skipped while its failure zone already holds
    /// `copies_per_zone` copies, so the set covers `zones` distinct zones
    /// whenever the ring contains them.
    pub fn replicas_of_node(&self, node: NodeId) -> Vec<NodeId> {
        let Some(pos) = self.ring.iter().position(|r| r.node == node) else {
            return vec![node];
        };
        let mut out = Vec::new();
        self.walk_replicas(pos, &mut out);
        out
    }

    /// Append the replica set of the node at ring position `pos` to `out`.
    fn walk_replicas(&self, pos: usize, out: &mut Vec<NodeId>) {
        let first = out.len();
        out.push(self.ring[pos].node);
        if let Some((zones, per_zone)) = self.policy.zone_bound() {
            self.zone_aware_replicas(pos, zones, per_zone, out);
            return;
        }
        let n = self.ring.len();
        let half = self.replication_factor / 2;
        for step in 1..=half {
            let cw = self.ring[(pos + step) % n].node;
            if !out[first..].contains(&cw) {
                out.push(cw);
            }
            let ccw = self.ring[(pos + n - (step % n)) % n].node;
            if !out[first..].contains(&ccw) {
                out.push(ccw);
            }
        }
    }

    /// Greedy clockwise walk from ring position `pos`, whose node is the
    /// last one in `out` and opens the set, that accepts a candidate only
    /// while its zone holds fewer than `per_zone` copies; once every zone
    /// present on the ring is saturated the walk falls back to the
    /// nearest remaining neighbours to reach the configured degree.
    fn zone_aware_replicas(
        &self,
        pos: usize,
        zones: usize,
        per_zone: usize,
        out: &mut Vec<NodeId>,
    ) {
        let first = out.len() - 1;
        let n = self.ring.len();
        let target = first + self.replication_factor.min(n);
        let mut counts = vec![0usize; zones];
        counts[zone_of(self.ring[pos].node, zones)] = 1;
        for step in 1..n {
            if out.len() == target {
                break;
            }
            let cand = self.ring[(pos + step) % n].node;
            let zone = zone_of(cand, zones);
            if counts[zone] < per_zone && !out[first..].contains(&cand) {
                counts[zone] += 1;
                out.push(cand);
            }
        }
        // The ring may not contain enough distinct zones (or enough nodes
        // per zone) to satisfy the bound; degree still wins over spread.
        for step in 1..n {
            if out.len() == target {
                break;
            }
            let cand = self.ring[(pos + step) % n].node;
            if !out[first..].contains(&cand) {
                out.push(cand);
            }
        }
    }

    /// Derive the recovery routing table after the nodes in `failed` have
    /// been lost (Section V-D, "determine change in assignment of ranges
    /// to nodes").
    ///
    /// Every range owned by a failed node is split into equal sub-ranges,
    /// one per surviving replica holder of that node, so that "the
    /// initiator will evenly divide among them the task of recomputing the
    /// missing answers".  Ranges owned by surviving nodes are unchanged.
    pub fn reassign_failed(&self, failed: &NodeSet) -> Result<RoutingTable> {
        let survivors: Vec<RingNode> = self
            .ring
            .iter()
            .copied()
            .filter(|r| !failed.contains(r.node))
            .collect();
        if survivors.is_empty() {
            return Err(OrchestraError::Substrate(
                "all nodes have failed; no survivors to reassign ranges to".into(),
            ));
        }

        let mut new_entries: Vec<RangeAssignment> = Vec::with_capacity(self.entries.len() * 2);
        for (index, entry) in self.entries.iter().enumerate() {
            if !failed.contains(entry.owner) {
                new_entries.push(*entry);
                continue;
            }
            // Surviving replica holders of the failed owner, falling back to
            // all survivors if every replica holder failed too (the data may
            // still exist elsewhere via background replication).
            let mut heirs: Vec<NodeId> = self
                .entry_replicas(index)
                .iter()
                .copied()
                .filter(|n| !failed.contains(*n))
                .collect();
            if heirs.is_empty() {
                heirs = survivors.iter().map(|r| r.node).collect();
            }
            for (i, heir) in heirs.iter().enumerate() {
                let sub = split_range(entry.range, heirs.len(), i);
                new_entries.push(RangeAssignment {
                    range: sub,
                    owner: *heir,
                });
            }
        }
        new_entries.sort_by_key(|e| e.range.start);
        // The degree was fixed when the table was built; recovery keeps it
        // (and the policy) so heirs are chosen consistently with the
        // snapshot the query was planned against.
        Ok(RoutingTable::with_replica_sets(
            new_entries,
            survivors,
            self.replication_factor,
            self.policy,
            self.scheme,
        ))
    }

    /// The ranges whose ownership differs between `self` (the original
    /// snapshot) and `other` (typically a recovery table): for each entry
    /// of `other` whose owner is not the owner of the same keys in `self`,
    /// report `(range, old owner, new owner)`.
    pub fn changed_ranges(&self, other: &RoutingTable) -> Vec<(KeyRange, NodeId, NodeId)> {
        let mut out = Vec::new();
        for entry in &other.entries {
            let probe = entry.range.midpoint();
            let old_owner = self.owner_of(probe);
            if old_owner != entry.owner {
                out.push((entry.range, old_owner, entry.owner));
            }
        }
        out
    }

    /// Wrap the table in an [`Arc`] for dissemination with a query plan.
    pub fn snapshot(&self) -> RoutingSnapshot {
        Arc::new(self.clone())
    }
}

/// Split `range` into `parts` nearly equal sub-ranges and return the
/// `index`-th one.  The final part absorbs any rounding remainder.
fn split_range(range: KeyRange, parts: usize, index: usize) -> KeyRange {
    debug_assert!(index < parts);
    if parts == 1 {
        return range;
    }
    let width = range.size().div_small(parts as u64);
    let start = range
        .start
        .wrapping_add(width.wrapping_mul_small(index as u64));
    let end = if index == parts - 1 {
        range.end
    } else {
        range
            .start
            .wrapping_add(width.wrapping_mul_small(index as u64 + 1))
    };
    KeyRange::new(start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::rng;

    fn nodes(n: u16) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn table(n: u16, r: usize) -> RoutingTable {
        RoutingTable::build(&nodes(n), AllocationScheme::Balanced, r)
    }

    #[test]
    fn owner_lookup_agrees_with_entry_scan() {
        let t = table(16, 3);
        for probe in 0..500u64 {
            let key = Key160::hash(&probe.to_be_bytes());
            let fast = t.owner_of(key);
            let slow = t
                .entries()
                .iter()
                .find(|e| e.range.contains(key))
                .unwrap()
                .owner;
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn replicas_have_requested_cardinality() {
        let t = table(16, 3);
        let key = Key160::hash(b"some key");
        let reps = t.replicas_of(key);
        assert_eq!(reps.len(), 3);
        assert_eq!(reps[0], t.owner_of(key));
        // All replicas are distinct nodes.
        let mut dedup = reps.to_vec();
        dedup.dedup();
        assert_eq!(dedup.len(), reps.len());
    }

    #[test]
    fn replicas_clamp_for_tiny_rings() {
        let t = table(2, 5);
        let reps = t.replicas_of(Key160::hash(b"k"));
        assert_eq!(reps.len(), 2);
    }

    #[test]
    fn reassignment_removes_failed_and_preserves_coverage() {
        let t = table(8, 3);
        let failed = NodeSet::singleton(NodeId(3));
        let t2 = t.reassign_failed(&failed).unwrap();
        assert_eq!(t2.node_count(), 7);
        assert!(!t2.contains_node(NodeId(3)));
        // Every key still has exactly one owner, and never a failed one.
        for probe in 0..300u64 {
            let key = Key160::hash(&probe.to_be_bytes());
            let owner = t2.owner_of(key);
            assert_ne!(owner, NodeId(3));
            let owners = t2
                .entries()
                .iter()
                .filter(|e| e.range.contains(key))
                .count();
            assert_eq!(owners, 1);
        }
    }

    #[test]
    fn reassignment_splits_among_replica_holders() {
        let t = table(8, 3);
        let failed_node = NodeId(3);
        let heirs: Vec<NodeId> = t
            .replicas_of_node(failed_node)
            .into_iter()
            .filter(|n| *n != failed_node)
            .collect();
        let t2 = t.reassign_failed(&NodeSet::singleton(failed_node)).unwrap();
        let changed = t.changed_ranges(&t2);
        // All changed ranges previously belonged to the failed node and are
        // now owned by its replica holders.
        assert!(!changed.is_empty());
        for (_, old_owner, new_owner) in &changed {
            assert_eq!(*old_owner, failed_node);
            assert!(heirs.contains(new_owner), "{new_owner} not in {heirs:?}");
        }
        // Both heirs receive a share (the paper divides the work evenly).
        let new_owners: std::collections::BTreeSet<NodeId> =
            changed.iter().map(|(_, _, n)| *n).collect();
        assert_eq!(new_owners.len(), heirs.len());
    }

    #[test]
    fn reassignment_with_all_nodes_failed_errors() {
        let t = table(3, 3);
        let failed = NodeSet::from_iter([NodeId(0), NodeId(1), NodeId(2)]);
        assert!(t.reassign_failed(&failed).is_err());
    }

    #[test]
    fn multi_failure_reassignment_covers_ring() {
        let t = table(10, 3);
        let failed = NodeSet::from_iter([NodeId(2), NodeId(3), NodeId(7)]);
        let t2 = t.reassign_failed(&failed).unwrap();
        assert_eq!(t2.node_count(), 7);
        for probe in 0..300u64 {
            let key = Key160::hash(&probe.to_be_bytes());
            let owner = t2.owner_of(key);
            assert!(!failed.contains(owner));
        }
    }

    #[test]
    fn changed_ranges_empty_for_identical_tables() {
        let t = table(8, 3);
        assert!(t.changed_ranges(&t).is_empty());
    }

    #[test]
    fn snapshot_is_shared_not_copied_per_use() {
        let t = table(4, 3);
        let s1 = t.snapshot();
        let s2 = Arc::clone(&s1);
        assert_eq!(Arc::strong_count(&s1), 2);
        assert_eq!(s2.node_count(), 4);
    }

    #[test]
    fn owner_is_never_a_failed_node() {
        // Deterministic sweep standing in for the original property test:
        // random cluster sizes, failed pairs and probe keys from a fixed
        // seed.
        let mut r = rng::seeded(0x0151);
        for _ in 0..64 {
            let n = r.random_range(4u16..24);
            let fail_a = r.random_range(0..n);
            let fail_b = r.random_range(0..n);
            let failed = NodeSet::from_iter([NodeId(fail_a), NodeId(fail_b)]);
            if failed.len() as u16 >= n {
                continue;
            }
            let t = table(n, 3);
            let t2 = t.reassign_failed(&failed).unwrap();
            for _ in 0..30 {
                let key = Key160::hash(&r.next_u64().to_be_bytes());
                assert!(!failed.contains(t2.owner_of(key)));
            }
        }
    }

    #[test]
    fn policy_build_with_fixed_factor_matches_plain_build() {
        let plain = table(16, 3);
        let policied = RoutingTable::build_with_policy(
            &nodes(16),
            AllocationScheme::Balanced,
            ReplicationPolicy::FixedFactor(3),
        );
        assert_eq!(plain, policied);
        assert_eq!(policied.policy(), ReplicationPolicy::FixedFactor(3));
    }

    #[test]
    fn percentage_policy_scales_degree_with_ring() {
        let t = RoutingTable::build_with_policy(
            &nodes(40),
            AllocationScheme::Balanced,
            ReplicationPolicy::PercentageOfNodes(0.1),
        );
        assert_eq!(t.replication_factor(), 4);
        let reps = t.replicas_of(Key160::hash(b"scaled"));
        assert!(reps.len() >= 4, "expected >=4 replicas, got {reps:?}");
    }

    #[test]
    fn geo_spread_covers_all_zones() {
        let policy = ReplicationPolicy::GeoSpread {
            zones: 3,
            copies_per_zone: 2,
        };
        let t = RoutingTable::build_with_policy(&nodes(24), AllocationScheme::Balanced, policy);
        assert_eq!(t.replication_factor(), 6);
        for probe in 0..50u64 {
            let key = Key160::hash(&probe.to_be_bytes());
            let reps = t.replicas_of(key);
            assert_eq!(reps.len(), 6);
            let mut per_zone = [0usize; 3];
            for r in reps {
                per_zone[zone_of(*r, 3)] += 1;
            }
            assert_eq!(per_zone, [2, 2, 2], "zone spread violated for {reps:?}");
        }
    }

    #[test]
    fn geo_spread_degrades_gracefully_when_zones_are_thin() {
        // Only nodes 0..4 exist: zone 2 of a 3-zone layout holds just
        // nodes {2}; degree still reaches min(target, ring size).
        let policy = ReplicationPolicy::GeoSpread {
            zones: 3,
            copies_per_zone: 2,
        };
        let t = RoutingTable::build_with_policy(&nodes(4), AllocationScheme::Balanced, policy);
        let reps = t.replicas_of(Key160::hash(b"thin"));
        assert_eq!(reps.len(), 4);
    }

    #[test]
    fn reassignment_preserves_policy() {
        let policy = ReplicationPolicy::GeoSpread {
            zones: 2,
            copies_per_zone: 2,
        };
        let t = RoutingTable::build_with_policy(&nodes(10), AllocationScheme::Balanced, policy);
        let t2 = t.reassign_failed(&NodeSet::singleton(NodeId(4))).unwrap();
        assert_eq!(t2.policy(), policy);
        assert_eq!(t2.replication_factor(), t.replication_factor());
    }

    /// The replica set of the entry holding `key` is the ring walk from
    /// its owner, for every key probed.
    fn assert_sets_match_the_walk(t: &RoutingTable, r: &mut rng::StdRng, what: &str) {
        let entry_keys = t
            .entries()
            .iter()
            .flat_map(|e| [e.range.start, e.range.midpoint()]);
        let random_keys: Vec<Key160> = (0..20)
            .map(|_| Key160::hash(&r.next_u64().to_be_bytes()))
            .collect();
        for key in entry_keys.chain(random_keys) {
            assert_eq!(
                t.replicas_of(key),
                t.replicas_of_node(t.owner_of(key)),
                "{what}, key {key}"
            );
        }
    }

    #[test]
    fn precomputed_replica_sets_match_the_ring_walk() {
        let mut r = rng::seeded(0x4e91);
        let policies = [
            ReplicationPolicy::FixedFactor(1),
            ReplicationPolicy::FixedFactor(3),
            ReplicationPolicy::FixedFactor(6),
            ReplicationPolicy::PercentageOfNodes(0.1),
            ReplicationPolicy::PercentageOfNodes(0.5),
            ReplicationPolicy::GeoSpread {
                zones: 3,
                copies_per_zone: 2,
            },
            ReplicationPolicy::GeoSpread {
                zones: 4,
                copies_per_zone: 1,
            },
        ];
        let sizes = [1, 2, 3, 256]
            .into_iter()
            .chain((0..24).map(|_| r.random_range(4u16..256)));
        for n in sizes.collect::<Vec<_>>() {
            for policy in policies {
                for scheme in [AllocationScheme::Balanced, AllocationScheme::PastryStyle] {
                    let t = RoutingTable::build_with_policy(&nodes(n), scheme, policy);
                    let what = format!("{n} nodes, {policy:?}, {scheme:?}");
                    assert_sets_match_the_walk(&t, &mut r, &what);
                    // Again after 1-3 nodes fail, while some survive.
                    let lost = r.random_range(1u16..=3);
                    if lost >= n {
                        continue;
                    }
                    let failed =
                        NodeSet::from_iter((0..lost).map(|_| NodeId(r.random_range(0..n))));
                    let recovery = t.reassign_failed(&failed).unwrap();
                    assert_sets_match_the_walk(
                        &recovery,
                        &mut r,
                        &format!("{what}, {failed:?} failed"),
                    );
                }
            }
        }
    }

    #[test]
    fn split_range_parts_tile_the_original() {
        let mut r = rng::seeded(0x5917);
        for _ in 0..200 {
            let parts = r.random_range(1usize..7);
            let start = Key160::from_u128(((r.next_u64() as u128) << 64) | r.next_u64() as u128);
            let len = 1 + (((r.next_u64() as u128) << 64) | r.next_u64() as u128) / 2;
            let end = start.wrapping_add(Key160::from_u128(len));
            let range = KeyRange::new(start, end);
            if range.is_full() {
                continue;
            }
            // Consecutive sub-ranges must be adjacent and ordered.
            let mut cursor = range.start;
            for i in 0..parts {
                let sub = split_range(range, parts, i);
                assert_eq!(sub.start, cursor);
                cursor = sub.end;
            }
            assert_eq!(cursor, range.end);
        }
    }
}
