//! Per-node link occupancy.
//!
//! The engine's performance in the paper is frequently network-bound: the
//! `Copy` scenario saturates the query initiator's downlink, and
//! Figure 17 shows running time exploding once per-node bandwidth drops
//! below a few hundred kB/s.  To reproduce those effects the simulator
//! serialises transfers through each node's uplink and downlink:
//!
//! * a transfer occupies the sender's **uplink** for `bytes / bandwidth`
//!   starting no earlier than the uplink is free,
//! * it then takes one propagation latency to cross the wire, and
//! * it occupies the receiver's **downlink** for `bytes / bandwidth`
//!   starting no earlier than the downlink is free.
//!
//! Messages between co-located operators on the same node skip the link
//! entirely (the engine batches and routes locally, as in the paper).

use crate::clock::SimTime;
use crate::profiles::ClusterProfile;

/// Occupancy state of one node's uplink and downlink.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkState {
    /// Earliest time the node can start sending the next message.
    pub uplink_free_at: SimTime,
    /// Earliest time the node can start receiving the next message.
    pub downlink_free_at: SimTime,
    /// Cumulative time the uplink has spent transferring bytes.
    pub uplink_busy: SimTime,
    /// Cumulative time the downlink has spent transferring bytes.
    pub downlink_busy: SimTime,
}

impl LinkState {
    /// A link that has never been used.
    pub fn idle() -> LinkState {
        LinkState::default()
    }

    /// Reserve the uplink for a transfer of `bytes` starting no earlier
    /// than `ready`; returns the time the last byte leaves the sender.
    pub fn reserve_uplink(
        &mut self,
        ready: SimTime,
        bytes: usize,
        profile: &ClusterProfile,
    ) -> SimTime {
        let start = self.uplink_free_at.max(ready);
        let occupied = profile.transfer_time(bytes);
        let done = start + occupied;
        self.uplink_free_at = done;
        self.uplink_busy += occupied;
        done
    }

    /// Reserve the downlink for a transfer of `bytes` whose first byte
    /// arrives at `arrival_start`; returns the time the last byte has been
    /// received.
    pub fn reserve_downlink(
        &mut self,
        arrival_start: SimTime,
        bytes: usize,
        profile: &ClusterProfile,
    ) -> SimTime {
        let start = self.downlink_free_at.max(arrival_start);
        let occupied = profile.transfer_time(bytes);
        let done = start + occupied;
        self.downlink_free_at = done;
        self.downlink_busy += occupied;
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_sends_serialize_on_the_uplink() {
        let profile = ClusterProfile::wan(1000.0, 0.0); // 1 MB/s, no latency
        let mut link = LinkState::idle();
        let d1 = link.reserve_uplink(SimTime::ZERO, 500_000, &profile);
        let d2 = link.reserve_uplink(SimTime::ZERO, 500_000, &profile);
        assert_eq!(d1, SimTime::from_secs_f64(0.5));
        assert_eq!(d2, SimTime::from_millis(1_000));
    }

    #[test]
    fn idle_gaps_are_not_accumulated() {
        let profile = ClusterProfile::wan(1000.0, 0.0);
        let mut link = LinkState::idle();
        link.reserve_uplink(SimTime::ZERO, 1000, &profile);
        // A much later send starts when it is ready, not when the link
        // became free.
        let done = link.reserve_uplink(SimTime::from_millis(10_000), 1000, &profile);
        assert_eq!(done, SimTime::from_millis(10_000) + SimTime::from_millis(1));
    }

    #[test]
    fn busy_time_accumulates_transfer_time_not_idle_gaps() {
        let profile = ClusterProfile::wan(1000.0, 0.0); // 1 MB/s
        let mut link = LinkState::idle();
        link.reserve_uplink(SimTime::ZERO, 1000, &profile); // 1 ms
        link.reserve_uplink(SimTime::from_millis(5_000), 1000, &profile); // 1 ms, after a gap
        link.reserve_downlink(SimTime::from_millis(7_000), 2000, &profile); // 2 ms
        assert_eq!(link.uplink_busy, SimTime::from_millis(2));
        assert_eq!(link.downlink_busy, SimTime::from_millis(2));
    }

    #[test]
    fn downlink_contention_delays_receipt() {
        let profile = ClusterProfile::wan(1000.0, 0.0);
        let mut link = LinkState::idle();
        let r1 = link.reserve_downlink(SimTime::ZERO, 1_000_000, &profile);
        let r2 = link.reserve_downlink(SimTime::ZERO, 1_000_000, &profile);
        assert_eq!(r1, SimTime::from_millis(1_000));
        assert_eq!(r2, SimTime::from_millis(2_000));
    }
}
