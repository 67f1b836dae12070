//! The discrete-event simulator core.
//!
//! [`Simulator`] owns the virtual clock, the event queue, one
//! [`LinkState`] and one CPU-availability time per node, the failure
//! record, and two traffic totals (bytes and messages between distinct
//! nodes).  It is generic over the message type `M`, so the query engine
//! defines its own message enum and the simulator stays a pure
//! transport/timing substrate.
//!
//! It keeps no per-link or per-node traffic: a caller that needs the
//! breakdown records it beside its own sends (the engine's per-session
//! [`crate::TrafficStats`]), so once the event heap has grown to the
//! run's peak a send allocates nothing.
//!
//! ### Determinism
//!
//! Events are ordered by `(delivery time, sequence number)`; the sequence
//! number is assigned at enqueue time, so simultaneous events are
//! delivered in the order they were produced.  Given identical inputs the
//! simulation is bit-for-bit reproducible.
//!
//! Messages between one ordered pair of nodes, the pair (n, n) included,
//! are delivered in the order they were sent.  Remote sends are ordered
//! by construction — link reservations are made in call order, so a later
//! send never clears the uplink or the downlink earlier — and a same-node
//! send never arrives before that node's previous same-node send.  The
//! engine's end-of-stream protocol relies on this: a marker must not
//! overtake a batch sent before it.
//!
//! ### Failures
//!
//! [`Simulator::fail_node`] marks a node dead from a virtual instant
//! onwards.  Messages sent by a dead node are discarded at the send call;
//! messages addressed to a node that is dead at delivery time are
//! discarded at the pop.  Both kinds are counted in
//! [`Simulator::dropped_messages`].  There is no query for the nodes
//! failed as of an instant: the engine — exactly like the paper's engine
//! observing a TCP connection reset — learns of a failure from its own
//! messages (a refused send names the sender, a discarded delivery the
//! receiver), and [`Simulator::last_failure_of`] tells it when the last
//! of the nodes it saw fail had died.

use crate::clock::SimTime;
use crate::link::LinkState;
use crate::profiles::ClusterProfile;
use orchestra_common::{NodeId, NodeSet};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event delivered by the simulator.
#[derive(Clone, Debug)]
pub struct Delivery<M> {
    /// Virtual time at which the event fires at the destination.
    pub time: SimTime,
    /// The node that produced the event.
    pub from: NodeId,
    /// The node at which the event fires.
    pub to: NodeId,
    /// The engine-defined payload.
    pub payload: M,
}

struct Event<M> {
    time: SimTime,
    seq: u64,
    from: NodeId,
    to: NodeId,
    payload: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; reverse so the earliest event pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Deterministic discrete-event simulator over `node_count` nodes.
pub struct Simulator<M> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event<M>>,
    links: Vec<LinkState>,
    cpu_free_at: Vec<SimTime>,
    /// Arrival time of each node's latest same-node send.
    local_arrival: Vec<SimTime>,
    failed_at: Vec<Option<SimTime>>,
    profile: ClusterProfile,
    total_bytes: u64,
    total_messages: u64,
    dropped: u64,
}

impl<M> Simulator<M> {
    /// Create a simulator for `node_count` nodes sharing `profile`.
    pub fn new(node_count: usize, profile: ClusterProfile) -> Simulator<M> {
        assert!(node_count > 0, "simulator needs at least one node");
        Simulator {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            links: vec![LinkState::idle(); node_count],
            cpu_free_at: vec![SimTime::ZERO; node_count],
            local_arrival: vec![SimTime::ZERO; node_count],
            failed_at: vec![None; node_count],
            profile,
            total_bytes: 0,
            total_messages: 0,
            dropped: 0,
        }
    }

    /// Current virtual time (the timestamp of the most recently delivered
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of simulated nodes.
    pub fn node_count(&self) -> usize {
        self.links.len()
    }

    /// The cluster profile in force.
    pub fn profile(&self) -> &ClusterProfile {
        &self.profile
    }

    /// Total bytes sent between distinct nodes (a message its sender had
    /// failed before sending is not counted; one dropped at a failed
    /// receiver is).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total messages sent between distinct nodes, counted as
    /// [`Simulator::total_bytes`] counts their bytes.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Number of messages dropped because the sender or receiver had
    /// failed.
    pub fn dropped_messages(&self) -> u64 {
        self.dropped
    }

    /// Delivery instant of the next pending event, without popping it.
    /// `None` means the simulation has quiesced.  Open-loop drivers peek
    /// this to decide whether an external arrival precedes the next
    /// simulated event.
    pub fn next_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|ev| ev.time)
    }

    /// Advance the virtual clock to `at` without delivering anything —
    /// the idle time between a quiesced (or not-yet-due) event queue and
    /// an externally scheduled instant, e.g. the next session arrival of
    /// an open-loop workload.  The clock never moves backwards.
    pub fn advance_to(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }

    /// Mark `node` as failed from `at` onwards.
    pub fn fail_node(&mut self, node: NodeId, at: SimTime) {
        let slot = &mut self.failed_at[node.index()];
        match slot {
            Some(existing) if *existing <= at => {}
            _ => *slot = Some(at),
        }
    }

    /// Clear `node`'s failure record: it participates again from the next
    /// event onwards (a churned node rejoining with a fresh process).
    ///
    /// Messages that were addressed to the node while it was down and have
    /// already been popped stay dropped; events still queued will now be
    /// delivered — the simulated equivalent of a packet arriving just as
    /// the replacement process binds the port.
    pub fn revive_node(&mut self, node: NodeId) {
        self.failed_at[node.index()] = None;
    }

    /// Has `node` failed as of `at`?
    pub fn is_failed_at(&self, node: NodeId, at: SimTime) -> bool {
        matches!(self.failed_at[node.index()], Some(t) if t <= at)
    }

    /// The instant the last of `nodes` failed (zero if none has).
    pub fn last_failure_of(&self, nodes: &NodeSet) -> SimTime {
        nodes
            .iter()
            .filter_map(|n| self.failed_at.get(n.index()).copied().flatten())
            .fold(SimTime::ZERO, SimTime::max)
    }

    /// Reserve CPU on `node`: work of length `duration` that cannot start
    /// before `ready` completes at the returned time, and the node's CPU
    /// is busy until then.
    pub fn charge_cpu(&mut self, node: NodeId, ready: SimTime, duration: SimTime) -> SimTime {
        let start = self.cpu_free_at[node.index()].max(ready);
        let done = start + duration;
        self.cpu_free_at[node.index()] = done;
        done
    }

    /// The time `node`'s CPU becomes free.
    pub fn cpu_free_at(&self, node: NodeId) -> SimTime {
        self.cpu_free_at[node.index()]
    }

    /// Enqueue a purely local event at `node`, firing at `at` (no network
    /// involvement, no traffic recorded).
    pub fn schedule(&mut self, node: NodeId, at: SimTime, payload: M) {
        let seq = self.next_seq();
        self.push(Event {
            time: at,
            seq,
            from: node,
            to: node,
            payload,
        });
    }

    /// Send `bytes` of payload from `src` to `dst`, no earlier than
    /// `ready`.  Returns the delivery time, or `None` if the sender had
    /// already failed (the message is silently dropped, as with a crashed
    /// process).
    ///
    /// Same-node sends are delivered after the sender's CPU is free at
    /// `ready` with no link cost and no traffic recorded, matching the
    /// paper's engine where co-located operators hand tuples over in
    /// memory.
    ///
    /// Messages between one ordered pair of nodes, the pair (n, n)
    /// included, are delivered in the order they were sent: a same-node
    /// send whose `ready` precedes the arrival of that node's previous
    /// same-node send arrives with it, behind it in the queue.
    pub fn send(
        &mut self,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
        ready: SimTime,
        payload: M,
    ) -> Option<SimTime> {
        if self.is_failed_at(src, ready) {
            self.dropped += 1;
            return None;
        }
        let arrival = if src == dst {
            let latest = &mut self.local_arrival[src.index()];
            *latest = ready.max(*latest);
            *latest
        } else {
            self.total_bytes += bytes as u64;
            self.total_messages += 1;
            let uplink_done = self.links[src.index()].reserve_uplink(ready, bytes, &self.profile);
            let at_receiver = uplink_done + self.profile.latency();
            self.links[dst.index()].reserve_downlink(at_receiver, bytes, &self.profile)
        };
        let seq = self.next_seq();
        self.push(Event {
            time: arrival,
            seq,
            from: src,
            to: dst,
            payload,
        });
        Some(arrival)
    }

    /// Pop the next event.  Events addressed to nodes that are failed at
    /// the delivery instant are discarded (and counted); `None` means the
    /// simulation has quiesced.
    ///
    /// Deliberately not an `Iterator` impl: callers interleave `send`
    /// calls between pops, which a borrowing iterator would forbid.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Delivery<M>> {
        while let Some((d, delivered)) = self.next_any() {
            if delivered {
                return Some(d);
            }
        }
        None
    }

    /// Pop the next event, delivered or not.  The flag is `false` when
    /// the destination was failed at the delivery instant: the event was
    /// counted as dropped and must not be processed, but callers that
    /// multiplex several sessions over one simulator can still read the
    /// payload to attribute the drop.  `None` means the simulation has
    /// quiesced.
    pub fn next_any(&mut self) -> Option<(Delivery<M>, bool)> {
        let ev = self.queue.pop()?;
        self.now = self.now.max(ev.time);
        let delivered = !self.is_failed_at(ev.to, ev.time);
        if !delivered {
            self.dropped += 1;
        }
        Some((
            Delivery {
                time: ev.time,
                from: ev.from,
                to: ev.to,
                payload: ev.payload,
            },
            delivered,
        ))
    }

    /// Aggregate link utilization over the window `[0, until]`: transfer
    /// time summed across every node's uplink and downlink, divided by
    /// the total link capacity of the window (`2 × nodes × until`).
    /// Returns 0 for an empty window.
    ///
    /// Busy time accrues in full at reservation, so a transfer still in
    /// flight at `until` contributes its whole duration: the figure is
    /// an upper bound on the window's true utilization.  Each direction
    /// is clamped to the window (a link cannot be busy longer than the
    /// window lasts), which also caps the result at 1.0.
    pub fn link_utilization(&self, until: SimTime) -> f64 {
        let capacity = 2 * self.links.len() as u64 * until.as_micros();
        if capacity == 0 {
            return 0.0;
        }
        let busy: u64 = self
            .links
            .iter()
            .map(|l| {
                l.uplink_busy.as_micros().min(until.as_micros())
                    + l.downlink_busy.as_micros().min(until.as_micros())
            })
            .sum();
        busy as f64 / capacity as f64
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    fn push(&mut self, ev: Event<M>) {
        self.queue.push(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(n: usize) -> Simulator<&'static str> {
        Simulator::new(n, ClusterProfile::wan(1000.0, 10.0)) // 1 MB/s, 10 ms
    }

    #[test]
    fn events_pop_in_time_then_fifo_order() {
        let mut s = sim(2);
        s.schedule(NodeId(0), SimTime::from_millis(5), "b");
        s.schedule(NodeId(0), SimTime::from_millis(1), "a");
        s.schedule(NodeId(0), SimTime::from_millis(5), "c");
        let order: Vec<&str> = std::iter::from_fn(|| s.next().map(|d| d.payload)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert_eq!(s.now(), SimTime::from_millis(5));
    }

    #[test]
    fn peek_and_advance_drive_an_open_loop_clock() {
        let mut s = sim(2);
        assert_eq!(s.next_time(), None);
        s.schedule(NodeId(0), SimTime::from_millis(5), "later");
        assert_eq!(s.next_time(), Some(SimTime::from_millis(5)));
        // Peeking never advances the clock or pops the event.
        assert_eq!(s.now(), SimTime::ZERO);
        // An arrival at t = 2 ms precedes the event: advance to it.
        s.advance_to(SimTime::from_millis(2));
        assert_eq!(s.now(), SimTime::from_millis(2));
        // The clock never moves backwards.
        s.advance_to(SimTime::from_millis(1));
        assert_eq!(s.now(), SimTime::from_millis(2));
        let d = s.next().unwrap();
        assert_eq!(d.payload, "later");
        assert_eq!(s.now(), SimTime::from_millis(5));
    }

    #[test]
    fn send_accounts_for_bandwidth_and_latency() {
        let mut s = sim(2);
        // 1000 bytes at 1 MB/s = 1 ms on the uplink, +10 ms latency,
        // +1 ms on the receiver downlink.
        let arrival = s
            .send(NodeId(0), NodeId(1), 1000, SimTime::ZERO, "msg")
            .unwrap();
        assert_eq!(arrival, SimTime::from_millis(12));
        assert_eq!(s.total_bytes(), 1000);
        assert_eq!(s.total_messages(), 1);
        let d = s.next().unwrap();
        assert_eq!(d.to, NodeId(1));
        assert_eq!(d.time, arrival);
    }

    #[test]
    fn local_sends_are_free_and_unrecorded() {
        let mut s = sim(2);
        let arrival = s
            .send(
                NodeId(1),
                NodeId(1),
                1_000_000,
                SimTime::from_millis(3),
                "x",
            )
            .unwrap();
        assert_eq!(arrival, SimTime::from_millis(3));
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.total_messages(), 0);
    }

    #[test]
    fn same_node_sends_pop_in_send_order() {
        // A backlogged node flushes a batch to itself at its CPU-ready
        // time, then sends itself an end-of-stream marker stamped with
        // the (earlier) event time: the marker must not overtake.
        let mut s = sim(2);
        let first = s.send(NodeId(1), NodeId(1), 64, SimTime::from_millis(9), "batch");
        let second = s.send(NodeId(1), NodeId(1), 8, SimTime::from_millis(2), "eos");
        assert_eq!(first, Some(SimTime::from_millis(9)));
        assert_eq!(second, Some(SimTime::from_millis(9)));
        // The other node's self-sends are not held back.
        let other = s.send(NodeId(0), NodeId(0), 8, SimTime::from_millis(2), "other");
        assert_eq!(other, Some(SimTime::from_millis(2)));
        let order: Vec<&str> = std::iter::from_fn(|| s.next().map(|d| d.payload)).collect();
        assert_eq!(order, vec!["other", "batch", "eos"]);
    }

    #[test]
    fn every_ordered_pair_is_delivered_in_send_order() {
        use orchestra_common::rng::StdRng;
        const NODES: u64 = 4;
        for seed in 0..20 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s: Simulator<usize> =
                Simulator::new(NODES as usize, ClusterProfile::wan(1000.0, 10.0));
            for i in 0..200 {
                let src = NodeId(rng.random_range(0..NODES) as u16);
                let dst = NodeId(rng.random_range(0..NODES) as u16);
                let bytes = rng.random_range(0..5000u64) as usize;
                let ready = SimTime::from_micros(rng.random_range(0..50_000u64));
                s.send(src, dst, bytes, ready, i).unwrap();
            }
            let mut last = std::collections::HashMap::new();
            while let Some(d) = s.next() {
                if let Some(prev) = last.insert((d.from, d.to), d.payload) {
                    assert!(
                        prev < d.payload,
                        "seed {seed}: {} -> {} delivered message {} after {prev}",
                        d.from,
                        d.to,
                        d.payload
                    );
                }
            }
        }
    }

    #[test]
    fn consecutive_sends_share_the_uplink() {
        let mut s = sim(3);
        let a1 = s
            .send(NodeId(0), NodeId(1), 1000, SimTime::ZERO, "a")
            .unwrap();
        let a2 = s
            .send(NodeId(0), NodeId(2), 1000, SimTime::ZERO, "b")
            .unwrap();
        // The second message cannot start until the first left the uplink.
        assert!(a2 > a1);
        assert_eq!(a2, SimTime::from_millis(13));
    }

    #[test]
    fn cpu_charges_serialize_per_node() {
        let mut s = sim(2);
        let d1 = s.charge_cpu(NodeId(0), SimTime::ZERO, SimTime::from_millis(4));
        let d2 = s.charge_cpu(NodeId(0), SimTime::ZERO, SimTime::from_millis(4));
        let other = s.charge_cpu(NodeId(1), SimTime::ZERO, SimTime::from_millis(4));
        assert_eq!(d1, SimTime::from_millis(4));
        assert_eq!(d2, SimTime::from_millis(8));
        assert_eq!(other, SimTime::from_millis(4));
        assert_eq!(s.cpu_free_at(NodeId(0)), SimTime::from_millis(8));
    }

    #[test]
    fn failed_sender_drops_messages() {
        let mut s = sim(2);
        s.fail_node(NodeId(0), SimTime::from_millis(1));
        assert!(s
            .send(NodeId(0), NodeId(1), 10, SimTime::from_millis(2), "late")
            .is_none());
        // A send that was initiated before the failure still goes out.
        assert!(s
            .send(NodeId(0), NodeId(1), 10, SimTime::ZERO, "early")
            .is_some());
        assert_eq!(s.dropped_messages(), 1);
    }

    #[test]
    fn failed_receiver_discards_at_delivery() {
        let mut s = sim(2);
        s.send(NodeId(0), NodeId(1), 1000, SimTime::ZERO, "doomed")
            .unwrap();
        s.fail_node(NodeId(1), SimTime::from_millis(1));
        assert!(s.next().is_none());
        assert_eq!(s.dropped_messages(), 1);
        assert!(s.is_failed_at(NodeId(1), SimTime::from_millis(1)));
        assert!(!s.is_failed_at(NodeId(1), SimTime::ZERO));
        let both: NodeSet = [NodeId(0), NodeId(1)].into_iter().collect();
        assert_eq!(s.last_failure_of(&both), SimTime::from_millis(1));
        assert_eq!(
            s.last_failure_of(&NodeSet::singleton(NodeId(0))),
            SimTime::ZERO
        );
    }

    #[test]
    fn revived_node_sends_and_receives_again() {
        let mut s = sim(2);
        s.fail_node(NodeId(1), SimTime::ZERO);
        assert!(s
            .send(NodeId(1), NodeId(0), 10, SimTime::from_millis(1), "dead")
            .is_none());
        s.revive_node(NodeId(1));
        assert!(!s.is_failed_at(NodeId(1), SimTime::from_millis(1_000)));
        assert!(s
            .send(NodeId(1), NodeId(0), 10, SimTime::from_millis(2), "alive")
            .is_some());
        assert!(s
            .send(NodeId(0), NodeId(1), 10, SimTime::from_millis(2), "inbound")
            .is_some());
        let delivered: Vec<&str> = std::iter::from_fn(|| s.next().map(|d| d.payload)).collect();
        assert_eq!(delivered, vec!["alive", "inbound"]);
    }

    #[test]
    fn next_any_surfaces_dropped_deliveries() {
        let mut s = sim(2);
        s.send(NodeId(0), NodeId(1), 1000, SimTime::ZERO, "doomed")
            .unwrap();
        s.fail_node(NodeId(1), SimTime::from_millis(1));
        let (d, delivered) = s.next_any().unwrap();
        assert!(!delivered, "receiver is dead at the delivery instant");
        assert_eq!(d.payload, "doomed");
        assert_eq!(s.dropped_messages(), 1);
        assert!(s.next_any().is_none());
    }

    #[test]
    fn link_utilization_tracks_busy_fraction() {
        let mut s = sim(2); // 1 MB/s, 10 ms latency
        assert_eq!(s.link_utilization(SimTime::from_millis(1_000)), 0.0);
        // 1000 bytes = 1 ms on the uplink + 1 ms on the downlink.
        s.send(NodeId(0), NodeId(1), 1000, SimTime::ZERO, "m");
        let busy = s.links.iter().map(|l| l.uplink_busy + l.downlink_busy);
        assert_eq!(
            busy.fold(SimTime::ZERO, |a, b| a + b),
            SimTime::from_millis(2)
        );
        // 2 ms busy over a 100 ms window of 2 nodes × 2 directions.
        let util = s.link_utilization(SimTime::from_millis(100));
        assert!((util - 2.0 / 400.0).abs() < 1e-12, "{util}");
        assert_eq!(s.link_utilization(SimTime::ZERO), 0.0);
        // A transfer longer than the window is clamped to it: the
        // utilization figure never exceeds 1.0 even when stragglers are
        // still in flight at the window's end.
        s.send(NodeId(0), NodeId(1), 10_000_000, SimTime::ZERO, "big"); // 10 s
        let clamped = s.link_utilization(SimTime::from_millis(100));
        assert!(clamped <= 1.0, "{clamped}");
        assert!((clamped - 0.5).abs() < 0.02, "{clamped}"); // 2 of 4 links saturated
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut s = sim(4);
            for i in 0..50u16 {
                let src = NodeId(i % 4);
                let dst = NodeId((i + 1) % 4);
                s.send(src, dst, 100 * (i as usize + 1), SimTime::ZERO, "m");
            }
            let mut trace = Vec::new();
            while let Some(d) = s.next() {
                trace.push((d.time, d.from, d.to));
            }
            trace
        };
        assert_eq!(run(), run());
    }
}
