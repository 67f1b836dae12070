//! Shared-clock multiplexing: one simulated network, many queries.
//!
//! [`SessionSim`] is the per-query face of a [`Simulator`] that may be
//! shared by several concurrently executing queries.  Each `Runtime`
//! owns one handle; every message it sends is wrapped in a
//! [`Wire`] envelope carrying the runtime's [`SessionId`], and the
//! handle keeps the session's own [`TrafficStats`], dropped-message
//! count and failed nodes — those whose failure dropped one of its
//! messages, all the session knows of failures — so a
//! [`super::QueryReport`] stays per-query exact even when the underlying
//! links, CPUs and clock are contended by other sessions.
//! These ledgers are the only per-link traffic record of a run: the
//! shared simulator keeps the run's byte and message totals only, which
//! the sessions' totals partition.
//!
//! The scheduler (`scheduler`) owns the one pop loop: it attaches a
//! handle per admitted session and dispatches each delivery by its
//! envelope tag.  A stand-alone [`super::QueryExecutor`] run is the
//! one-session case of the same loop.

use super::exchange::{Payload, SessionId, Wire};
use orchestra_common::{NodeId, NodeSet};
use orchestra_simnet::{ClusterProfile, SimTime, Simulator, TrafficStats};
use orchestra_substrate::RoutingTable;
use std::cell::RefCell;
use std::rc::Rc;

/// A simulator shared by every session of one scheduler run.
/// Single-threaded by construction, hence `Rc<RefCell<..>>` rather than
/// locks.
pub(super) type SharedSim = Rc<RefCell<Simulator<Wire>>>;

/// Node slots a simulator over `table`'s members needs (node ids index
/// arrays directly, so the highest index bounds the allocation).  Zero
/// for an empty table, which no session runs on: its initiator is not a
/// member.
pub(super) fn node_slots(table: &RoutingTable) -> usize {
    table
        .nodes()
        .iter()
        .map(|n| n.index() + 1)
        .max()
        .unwrap_or(0)
}

/// Build the shared simulator every session of one run attaches to.
pub(super) fn shared_sim(table: &RoutingTable, profile: ClusterProfile) -> SharedSim {
    Rc::new(RefCell::new(Simulator::new(node_slots(table), profile)))
}

/// One query session's handle onto the run's shared simulator.
pub(super) struct SessionSim {
    shared: SharedSim,
    session: SessionId,
    /// Traffic attributable to this session alone.
    stats: TrafficStats,
    /// Messages of this session dropped because a party had failed.
    dropped: u64,
    /// The nodes whose failure dropped one of those messages.
    failed: NodeSet,
}

impl SessionSim {
    /// Attach a session handle to `shared`.
    pub(super) fn attach(shared: SharedSim, session: SessionId) -> SessionSim {
        SessionSim {
            shared,
            session,
            stats: TrafficStats::new(),
            dropped: 0,
            failed: NodeSet::empty(),
        }
    }

    /// Current virtual time of the shared clock.
    pub(super) fn now(&self) -> SimTime {
        self.shared.borrow().now()
    }

    /// The nodes whose failure dropped one of this session's messages.
    pub(super) fn failed(&self) -> NodeSet {
        self.failed
    }

    /// Reserve CPU on `node` (shared across sessions — concurrent
    /// queries contend for the same cores).
    pub(super) fn charge_cpu(
        &mut self,
        node: NodeId,
        ready: SimTime,
        duration: SimTime,
    ) -> SimTime {
        self.shared.borrow_mut().charge_cpu(node, ready, duration)
    }

    /// The time `node`'s CPU becomes free.
    pub(super) fn cpu_free_at(&self, node: NodeId) -> SimTime {
        self.shared.borrow().cpu_free_at(node)
    }

    /// Enqueue a purely local event for this session.
    pub(super) fn schedule(&mut self, node: NodeId, at: SimTime, payload: Payload) {
        self.shared.borrow_mut().schedule(
            node,
            at,
            Wire {
                session: self.session,
                payload,
            },
        );
    }

    /// Send `bytes` from `src` to `dst` on behalf of this session,
    /// contending for the shared links.  Per-session, per-link traffic is
    /// recorded here; the shared simulator counts the run's totals only.
    pub(super) fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        ready: SimTime,
        payload: Payload,
    ) -> Option<SimTime> {
        let sent = self.shared.borrow_mut().send(
            src,
            dst,
            bytes,
            ready,
            Wire {
                session: self.session,
                payload,
            },
        );
        match sent {
            Some(arrival) => {
                if src != dst {
                    self.stats.record(src, dst, bytes);
                }
                Some(arrival)
            }
            None => {
                self.dropped += 1;
                self.failed.insert(src);
                None
            }
        }
    }

    /// A delivery addressed to this session was discarded because its
    /// receiver `to` had failed (attributed by the scheduler's pop loop).
    pub(super) fn note_receiver_drop(&mut self, to: NodeId) {
        self.dropped += 1;
        self.failed.insert(to);
    }

    /// This session's traffic counters.
    pub(super) fn stats(&self) -> &TrafficStats {
        &self.stats
    }

    /// This session's dropped-message count.
    pub(super) fn dropped_messages(&self) -> u64 {
        self.dropped
    }
}
