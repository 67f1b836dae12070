//! # orchestra-substrate
//!
//! The hashing-based data partitioning substrate of Section III of the
//! paper: a content-addressable overlay customised for ORCHESTRA's stable,
//! small-to-medium scale environment (dozens to hundreds of participants).
//!
//! Compared with a classical DHT (Chord, Pastry), the substrate makes
//! three deliberate departures, all reproduced here:
//!
//! 1. **Range allocation.** Besides Pastry-style placement (each node owns
//!    the keys nearest to its hashed address, Figure 2(a)), the substrate
//!    supports **balanced allocation** (Figure 2(b)): the key space is cut
//!    into equal contiguous ranges, assigned in order to the nodes sorted
//!    by hash ID.  With only dozens of nodes the Pastry scheme is highly
//!    skewed; balanced allocation distributes data uniformly and keeps a
//!    single contiguous range per node, which the storage layer exploits
//!    for index/data co-location.  See [`allocation`].
//! 2. **One-hop routing.** Every node keeps a complete routing table, so
//!    any key is resolved locally and reached in a single hop.  See
//!    [`routing::RoutingTable`].
//! 3. **Snapshot semantics.** Distributed computations (queries) run
//!    against an immutable [`routing::RoutingSnapshot`] taken at
//!    initiation; membership changes never re-route in-flight state.
//!    After a failure the query initiator derives a *recovery* snapshot
//!    that reassigns the failed nodes' ranges to the surviving replica
//!    holders ([`membership`]).
//!
//! Replica placement follows Pastry/PAST: each data item is stored at its
//! owner plus ⌊r/2⌋ clockwise and ⌊r/2⌋ counter-clockwise neighbours
//! ([`routing::RoutingTable::replicas_of`]) — or, under a non-default
//! [`replication::ReplicationPolicy`], at a membership-scaled or
//! zone-spread replica set.
//!
//! Beyond the paper's stable-membership assumption, [`gossip`] adds
//! epidemic membership dissemination: nodes exchange incarnation-versioned
//! rumors in fanout-k rounds over the simulated network, and each node's
//! possibly-stale [`gossip::MemberView`] is its membership: what it
//! believes alive, the changes it accepted, and the routing snapshot it
//! derives.  That is what makes sustained churn at hundreds-to-thousands
//! of nodes tractable.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod allocation;
pub mod gossip;
pub mod membership;
pub mod metrics;
pub mod replication;
pub mod ring;
pub mod routing;

pub use allocation::AllocationScheme;
pub use gossip::{Gossip, GossipConfig, MemberView, PeerState, Rumor};
pub use membership::MembershipChange;
pub use metrics::AllocationStats;
pub use replication::{zone_of, ReplicationPolicy};
pub use ring::{node_position, RingNode};
pub use routing::{RangeAssignment, RoutingSnapshot, RoutingTable};
