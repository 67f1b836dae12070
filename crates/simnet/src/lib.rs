//! # orchestra-simnet
//!
//! A deterministic discrete-event simulation (DES) of the environments the
//! paper deploys on: a Gigabit-Ethernet LAN cluster, a traffic-shaped
//! wide-area network, and Amazon EC2 instances.
//!
//! ## Why a simulator?
//!
//! The paper's evaluation runs a ~50 kLoC Java engine on a 16-node Xeon
//! cluster and up to 100 EC2 nodes.  Reproducing those testbeds is not
//! possible here, so — per the substitution policy in `DESIGN.md` — the
//! deployment environment is simulated while **the data path is real**:
//! the query engine in `orchestra-engine` executes genuine relational
//! operators over genuine tuples; only *time* (CPU, disk, wire) and
//! *failures* are modelled.  Network traffic is measured exactly, by
//! counting the serialized bytes of every message handed to the simulator.
//!
//! ## What is modelled
//!
//! * [`clock::SimTime`] — a virtual clock with microsecond resolution.
//! * [`sim::Simulator`] — an ordered event queue delivering messages to
//!   nodes at computed times, with stable FIFO tie-breaking so runs are
//!   exactly reproducible.
//! * [`link::LinkState`] — per-node uplink/downlink occupancy: a transfer
//!   of `b` bytes leaves the sender no earlier than `b / uplink_bandwidth`
//!   after the previous transfer finished, arrives one latency later, and
//!   then occupies the receiver's downlink — which is what makes the query
//!   initiator a bottleneck for result-heavy queries (the paper's `Copy`
//!   scenario) and reproduces the bandwidth knee of Figure 17.
//! * [`profiles`] — node and network profiles: LAN cluster, EC2 "large"
//!   instances, and bandwidth/latency-shaped WAN settings (NetEm/HTB in
//!   the paper).
//! * [`stats::TrafficStats`] — per-session, per-link byte counts, the
//!   quantities plotted in Figures 8, 9, 11, 12, 15, 16, 19 and 20 (the
//!   simulator itself keeps only the run's byte and message totals).
//! * Failure injection: a node can be marked failed at a virtual instant;
//!   undelivered messages from/to it are dropped and peers observe the
//!   drop immediately (the paper relies on TCP connection resets for
//!   prompt failure detection) plus a configurable background ping period
//!   for "hung" nodes.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod clock;
pub mod link;
pub mod profiles;
pub mod sim;
pub mod stats;

pub use clock::SimTime;
pub use link::LinkState;
pub use profiles::{ClusterProfile, NodeProfile};
pub use sim::{Delivery, Simulator};
pub use stats::TrafficStats;
