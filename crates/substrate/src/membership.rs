//! Membership management: node arrival, departure, and failure.
//!
//! The substrate targets a low-churn environment: "membership in a CDSS
//! ... consists of perhaps dozens to hundreds of participants ... with
//! good bandwidth and relatively stable machines" (Section I).  The
//! [`Membership`] manager tracks the set of live participants and rebuilds
//! the routing table when nodes join or leave.  Consistent with
//! Section V-C:
//!
//! * a node that **joins** mid-computation is simply not used until the
//!   next query takes a fresh snapshot;
//! * a node that **fails** mid-computation triggers recovery against a
//!   table derived by [`RoutingTable::reassign_failed`];
//! * with balanced allocation "a single node arrival or departure will
//!   cause all the ranges to change slightly" — rebuilding the table is a
//!   membership-time (not query-time) cost, which the paper accepts in
//!   exchange for uniform distribution.
//!
//! Under gossip dissemination ([`crate::gossip`]) there is no longer one
//! authoritative `Membership`: each node *derives* one from its local
//! rumor view ([`Membership::derived`]), and two nodes may briefly derive
//! different memberships.  Snapshots taken from a stale derivation are
//! handled by the engine's existing recovery machinery.

use crate::allocation::AllocationScheme;
use crate::replication::ReplicationPolicy;
use crate::routing::{RoutingSnapshot, RoutingTable};
use orchestra_common::{NodeId, NodeSet, OrchestraError, Result};

/// A change to the membership, recorded for diagnostics and tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipChange {
    /// A new participant joined the CDSS.
    Joined(NodeId),
    /// A participant left gracefully (e.g. scheduled maintenance).
    Left(NodeId),
    /// A participant failed (crash or network partition).
    Failed(NodeId),
}

/// Tracks the live participants and produces routing tables.
#[derive(Clone, Debug)]
pub struct Membership {
    live: Vec<NodeId>,
    failed: Vec<NodeId>,
    scheme: AllocationScheme,
    policy: ReplicationPolicy,
    history: Vec<MembershipChange>,
}

impl Membership {
    /// Start a CDSS with `initial` participants.
    pub fn new(
        initial: impl IntoIterator<Item = NodeId>,
        scheme: AllocationScheme,
        replication_factor: usize,
    ) -> Self {
        Self::with_policy(
            initial,
            scheme,
            ReplicationPolicy::FixedFactor(replication_factor),
        )
    }

    /// Start a CDSS whose replica placement is driven by `policy`.
    pub fn with_policy(
        initial: impl IntoIterator<Item = NodeId>,
        scheme: AllocationScheme,
        policy: ReplicationPolicy,
    ) -> Self {
        let mut live: Vec<NodeId> = initial.into_iter().collect();
        live.sort_unstable();
        live.dedup();
        Membership {
            live,
            failed: Vec::new(),
            scheme,
            policy,
            history: Vec::new(),
        }
    }

    /// Reconstruct a membership from a node's local gossip view: the nodes
    /// it currently believes alive, the nodes it believes failed, and the
    /// order in which it accepted those beliefs.  This is a *derived*,
    /// possibly-stale view — another node may derive a different one from
    /// the same cluster at the same instant.
    pub fn derived(
        live: impl IntoIterator<Item = NodeId>,
        failed: impl IntoIterator<Item = NodeId>,
        history: Vec<MembershipChange>,
        scheme: AllocationScheme,
        policy: ReplicationPolicy,
    ) -> Self {
        let mut m = Self::with_policy(live, scheme, policy);
        m.failed = failed.into_iter().collect();
        m.failed.sort_unstable();
        m.failed.dedup();
        m.history = history;
        m
    }

    /// The live participants (sorted by node id).
    pub fn live_nodes(&self) -> &[NodeId] {
        &self.live
    }

    /// Nodes that have failed over the lifetime of the membership, as a
    /// bitset for the engine's recovery paths.
    ///
    /// Panics if any failed node id is ≥ [`NodeSet::CAPACITY`]; clusters
    /// beyond that (the 1000-node gossip scenarios) should use
    /// [`Membership::failed_ids`] instead.
    pub fn failed_nodes(&self) -> NodeSet {
        NodeSet::from_iter(self.failed.iter().copied())
    }

    /// Nodes that have failed, sorted by id, with no capacity limit.
    pub fn failed_ids(&self) -> &[NodeId] {
        &self.failed
    }

    /// The placement policy in force.
    pub fn policy(&self) -> ReplicationPolicy {
        self.policy
    }

    /// Number of live participants.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Is the membership empty?
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// The full change history, oldest first.
    pub fn history(&self) -> &[MembershipChange] {
        &self.history
    }

    /// A new participant joins.  Returns an error if it is already live.
    pub fn join(&mut self, node: NodeId) -> Result<()> {
        if self.live.contains(&node) {
            return Err(OrchestraError::Substrate(format!(
                "node {node} is already a member"
            )));
        }
        self.live.push(node);
        self.live.sort_unstable();
        self.failed.retain(|n| *n != node);
        self.history.push(MembershipChange::Joined(node));
        Ok(())
    }

    /// A participant leaves gracefully.
    pub fn leave(&mut self, node: NodeId) -> Result<()> {
        self.remove(node)?;
        self.history.push(MembershipChange::Left(node));
        Ok(())
    }

    /// A participant fails.  The node is recorded in
    /// [`Membership::failed_nodes`] so recovery logic can consult it.
    pub fn fail(&mut self, node: NodeId) -> Result<()> {
        self.remove(node)?;
        if !self.failed.contains(&node) {
            self.failed.push(node);
            self.failed.sort_unstable();
        }
        self.history.push(MembershipChange::Failed(node));
        Ok(())
    }

    fn remove(&mut self, node: NodeId) -> Result<()> {
        let before = self.live.len();
        self.live.retain(|n| *n != node);
        if self.live.len() == before {
            return Err(OrchestraError::Substrate(format!(
                "node {node} is not a live member"
            )));
        }
        Ok(())
    }

    /// Build the current routing table from the live membership.
    pub fn routing_table(&self) -> Result<RoutingTable> {
        if self.live.is_empty() {
            return Err(OrchestraError::Substrate(
                "cannot build a routing table with no live nodes".into(),
            ));
        }
        Ok(RoutingTable::build_with_policy(
            &self.live,
            self.scheme,
            self.policy,
        ))
    }

    /// Convenience: the current routing table as a shareable snapshot.
    pub fn snapshot(&self) -> Result<RoutingSnapshot> {
        Ok(RoutingSnapshot::new(self.routing_table()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn membership(n: u16) -> Membership {
        Membership::new((0..n).map(NodeId), AllocationScheme::Balanced, 3)
    }

    #[test]
    fn join_leave_fail_lifecycle() {
        let mut m = membership(4);
        assert_eq!(m.len(), 4);
        m.join(NodeId(10)).unwrap();
        assert_eq!(m.len(), 5);
        assert!(m.join(NodeId(10)).is_err());
        m.leave(NodeId(0)).unwrap();
        assert_eq!(m.len(), 4);
        m.fail(NodeId(1)).unwrap();
        assert_eq!(m.len(), 3);
        assert!(m.failed_nodes().contains(NodeId(1)));
        assert!(!m.failed_nodes().contains(NodeId(0)));
        assert!(m.leave(NodeId(99)).is_err());
        assert_eq!(m.history().len(), 3);
    }

    #[test]
    fn routing_table_tracks_membership() {
        let mut m = membership(8);
        let t1 = m.routing_table().unwrap();
        assert_eq!(t1.node_count(), 8);
        m.fail(NodeId(2)).unwrap();
        let t2 = m.routing_table().unwrap();
        assert_eq!(t2.node_count(), 7);
        assert!(!t2.contains_node(NodeId(2)));
    }

    #[test]
    fn rejoin_after_failure_clears_failed_flag() {
        let mut m = membership(4);
        m.fail(NodeId(3)).unwrap();
        assert!(m.failed_nodes().contains(NodeId(3)));
        m.join(NodeId(3)).unwrap();
        assert!(!m.failed_nodes().contains(NodeId(3)));
    }

    #[test]
    fn empty_membership_cannot_build_table() {
        let mut m = membership(1);
        m.fail(NodeId(0)).unwrap();
        assert!(m.routing_table().is_err());
        assert!(m.is_empty());
    }

    #[test]
    fn history_preserves_event_order() {
        let mut m = membership(4);
        m.join(NodeId(9)).unwrap();
        m.fail(NodeId(1)).unwrap();
        m.leave(NodeId(2)).unwrap();
        m.join(NodeId(1)).unwrap();
        assert_eq!(
            m.history(),
            &[
                MembershipChange::Joined(NodeId(9)),
                MembershipChange::Failed(NodeId(1)),
                MembershipChange::Left(NodeId(2)),
                MembershipChange::Joined(NodeId(1)),
            ],
            "history must record events oldest-first in application order"
        );
        // A rejoin appends; it never rewrites the earlier failure record.
        assert_eq!(m.history()[1], MembershipChange::Failed(NodeId(1)));
        assert!(!m.failed_nodes().contains(NodeId(1)));
    }

    #[test]
    fn derived_view_reports_failures_beyond_nodeset_capacity() {
        // A 1000-node gossip view must be expressible even though NodeSet
        // caps at 256 ids; failed_ids() is the capacity-free accessor.
        let live = (0..1000u16).filter(|n| *n != 900).map(NodeId);
        let m = Membership::derived(
            live,
            [NodeId(900)],
            vec![MembershipChange::Failed(NodeId(900))],
            AllocationScheme::Balanced,
            ReplicationPolicy::PercentageOfNodes(0.01),
        );
        assert_eq!(m.len(), 999);
        assert_eq!(m.failed_ids(), &[NodeId(900)]);
        assert_eq!(m.history().len(), 1);
        let table = m.routing_table().unwrap();
        assert_eq!(table.replication_factor(), 10);
    }

    #[test]
    fn policy_flows_into_routing_table() {
        let policy = ReplicationPolicy::GeoSpread {
            zones: 2,
            copies_per_zone: 1,
        };
        let m = Membership::with_policy((0..8).map(NodeId), AllocationScheme::Balanced, policy);
        assert_eq!(m.policy(), policy);
        assert_eq!(m.routing_table().unwrap().policy(), policy);
    }
}
