//! Membership changes: node arrival, departure, and failure.
//!
//! The substrate targets a low-churn environment: "membership in a CDSS
//! ... consists of perhaps dozens to hundreds of participants ... with
//! good bandwidth and relatively stable machines" (Section I).
//! Consistent with Section V-C:
//!
//! * a node that **joins** mid-computation is simply not used until the
//!   next query takes a fresh snapshot;
//! * a node that **fails** mid-computation triggers recovery against a
//!   table derived by [`crate::RoutingTable::reassign_failed`];
//! * with balanced allocation "a single node arrival or departure will
//!   cause all the ranges to change slightly" — rebuilding the table is a
//!   membership-time (not query-time) cost, which the paper accepts in
//!   exchange for uniform distribution.
//!
//! No membership is authoritative.  A change enters the cluster through
//! [`crate::Gossip::inject`], and each node's [`crate::MemberView`] is
//! what that node has heard: the nodes it believes alive, the changes it
//! accepted in order ([`crate::MemberView::history`]), and on demand the
//! routing snapshot a query plans against
//! ([`crate::MemberView::snapshot`]).  Two nodes may briefly hold
//! different views; snapshots taken from a stale one are handled by the
//! engine's existing recovery machinery.

use orchestra_common::NodeId;

/// A change to the membership: what [`crate::Gossip::inject`] applies to
/// the cluster and a view's history records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MembershipChange {
    /// A new participant joined the CDSS.
    Joined(NodeId),
    /// A participant left gracefully (e.g. scheduled maintenance).
    Left(NodeId),
    /// A participant failed (crash or network partition).
    Failed(NodeId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gossip::{Gossip, GossipConfig, MemberView, PeerState, Rumor};
    use crate::{AllocationScheme, ReplicationPolicy};
    use orchestra_simnet::ClusterProfile;

    /// A settled cluster of `n` nodes (with room for 16 more) after
    /// `changes` have spread to every live view.
    fn converged(n: usize, changes: &[MembershipChange]) -> Gossip {
        let profile = ClusterProfile::wan_metro();
        let mut g = Gossip::new(n, n + 16, GossipConfig::default(), profile);
        for change in changes {
            g.inject(*change).unwrap();
        }
        g.run_until_converged(64).unwrap();
        g
    }

    fn rumor(subject: u16, incarnation: u64, state: PeerState) -> Rumor {
        Rumor {
            subject: NodeId(subject),
            incarnation,
            state,
        }
    }

    fn state(view: &MemberView, node: u16) -> Option<PeerState> {
        view.state_of(NodeId(node)).map(|(_, state)| state)
    }

    #[test]
    fn join_leave_fail_lifecycle() {
        let mut g = converged(4, &[MembershipChange::Joined(NodeId(10))]);
        assert_eq!(g.view(NodeId(3)).unwrap().alive_nodes().len(), 5);
        assert!(g.inject(MembershipChange::Joined(NodeId(10))).is_err());
        g.inject(MembershipChange::Left(NodeId(0))).unwrap();
        g.inject(MembershipChange::Failed(NodeId(1))).unwrap();
        assert!(g.inject(MembershipChange::Left(NodeId(15))).is_err());
        g.run_until_converged(64).unwrap();
        let view = g.view(NodeId(3)).unwrap();
        assert_eq!(view.alive_nodes(), [NodeId(2), NodeId(3), NodeId(10)]);
        assert_eq!(state(view, 1), Some(PeerState::Failed));
        assert_eq!(state(view, 0), Some(PeerState::Left));
        assert_eq!(view.history().len(), 3);
    }

    #[test]
    fn routing_table_tracks_membership() {
        let policy = ReplicationPolicy::FixedFactor(3);
        let snapshot = |g: &Gossip| {
            let view = g.view(NodeId(0)).unwrap();
            view.snapshot(AllocationScheme::Balanced, policy).unwrap()
        };
        assert_eq!(snapshot(&converged(8, &[])).node_count(), 8);
        let t2 = snapshot(&converged(8, &[MembershipChange::Failed(NodeId(2))]));
        assert_eq!(t2.node_count(), 7);
        assert!(!t2.contains_node(NodeId(2)));
    }

    #[test]
    fn rejoin_after_failure_clears_failed_flag() {
        let mut g = converged(4, &[MembershipChange::Failed(NodeId(3))]);
        assert_eq!(
            state(g.view(NodeId(0)).unwrap(), 3),
            Some(PeerState::Failed)
        );
        g.inject(MembershipChange::Joined(NodeId(3))).unwrap();
        g.run_until_converged(64).unwrap();
        let view = g.view(NodeId(0)).unwrap();
        assert_eq!(state(view, 3), Some(PeerState::Alive));
        assert!(view.alive_nodes().contains(&NodeId(3)));
    }

    #[test]
    fn empty_membership_cannot_build_table() {
        let mut view = MemberView::seeded([NodeId(0)]);
        assert!(view.apply(rumor(0, 1, PeerState::Failed), 1));
        assert!(view.alive_nodes().is_empty());
        let policy = ReplicationPolicy::FixedFactor(3);
        assert!(view.snapshot(AllocationScheme::Balanced, policy).is_err());
    }

    #[test]
    fn history_preserves_event_order() {
        let mut view = MemberView::seeded((0..4).map(NodeId));
        for r in [
            rumor(9, 1, PeerState::Alive),
            rumor(1, 1, PeerState::Failed),
            rumor(2, 1, PeerState::Left),
            rumor(1, 2, PeerState::Alive),
        ] {
            assert!(view.apply(r, 1), "{r:?} is news");
        }
        assert_eq!(
            view.history(),
            &[
                MembershipChange::Joined(NodeId(9)),
                MembershipChange::Failed(NodeId(1)),
                MembershipChange::Left(NodeId(2)),
                MembershipChange::Joined(NodeId(1)),
            ],
            "history must record events oldest-first in application order"
        );
        // A rejoin appends; it never rewrites the earlier failure record.
        assert_eq!(view.history()[1], MembershipChange::Failed(NodeId(1)));
        assert_eq!(state(&view, 1), Some(PeerState::Alive));
    }

    #[test]
    fn derived_view_reports_failures_beyond_nodeset_capacity() {
        // A 1000-node gossip view must be expressible even though NodeSet
        // caps at 256 ids.
        let mut view = MemberView::seeded((0..1000).map(NodeId));
        assert!(view.apply(rumor(900, 1, PeerState::Failed), 1));
        assert_eq!(view.alive_nodes().len(), 999);
        assert_eq!(state(&view, 900), Some(PeerState::Failed));
        assert_eq!(view.history(), &[MembershipChange::Failed(NodeId(900))]);
        let policy = ReplicationPolicy::PercentageOfNodes(0.01);
        let table = view.snapshot(AllocationScheme::Balanced, policy).unwrap();
        assert_eq!(table.replication_factor(), 10);
    }

    #[test]
    fn policy_flows_into_routing_table() {
        let policy = ReplicationPolicy::GeoSpread {
            zones: 2,
            copies_per_zone: 1,
        };
        let view = MemberView::seeded((0..8).map(NodeId));
        let table = view.snapshot(AllocationScheme::Balanced, policy).unwrap();
        assert_eq!(table.policy(), policy);
    }
}
