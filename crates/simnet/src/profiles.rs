//! Node and network profiles describing the simulated deployment.
//!
//! The paper evaluates three environments, reproduced as constructors on
//! [`ClusterProfile`]:
//!
//! * [`ClusterProfile::lan_cluster`] — the 16-node cluster of dual-core
//!   2.4 GHz Xeons on Gigabit Ethernet used for Figures 7–16,
//! * [`ClusterProfile::wan`] — the same cluster with NetEm/HTB traffic
//!   shaping (bandwidth and latency limits) used for Figure 17 and the
//!   latency study, and
//! * [`ClusterProfile::ec2_large`] — Amazon EC2 "large" instances
//!   (virtualised dual-core 2 GHz Opterons, data-centre networking) used
//!   for Figures 18–20.
//!
//! The absolute constants are calibrated so that simulated running times
//! land in the same few-second range the paper reports for comparable
//! configurations; what matters for reproduction is that the *relative*
//! behaviour (speed-up with nodes, bandwidth knees, recovery deltas)
//! emerges from the same mechanisms.

use crate::clock::SimTime;

/// Per-node compute and storage characteristics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodeProfile {
    /// CPU time to process one tuple through one non-trivial operator
    /// (hash, probe, aggregate update, marshal), in seconds.
    pub cpu_seconds_per_tuple: f64,
    /// Additional CPU time per tuple for scan-level work (deserialisation
    /// from the local store, predicate evaluation), in seconds.
    pub scan_seconds_per_tuple: f64,
    /// Disk time per page read from the local versioned store, in seconds.
    /// The store is warm in the paper's measurements (they report results
    /// "after results converged", i.e. warm caches), so this is small.
    pub disk_seconds_per_page: f64,
    /// Fixed cost to launch a query fragment on the node (thread wakeup,
    /// plan instantiation), in seconds.
    pub task_startup_seconds: f64,
}

impl NodeProfile {
    /// A 2.4 GHz dual-core Xeon of the paper's local cluster.
    pub fn cluster_xeon() -> NodeProfile {
        NodeProfile {
            cpu_seconds_per_tuple: 1.1e-6,
            scan_seconds_per_tuple: 0.9e-6,
            disk_seconds_per_page: 80e-6,
            task_startup_seconds: 2e-3,
        }
    }

    /// An EC2 "large" instance: virtualised 2 GHz Opteron, slightly slower
    /// per-tuple work and higher task startup overhead than the bare-metal
    /// cluster.
    pub fn ec2_large() -> NodeProfile {
        NodeProfile {
            cpu_seconds_per_tuple: 1.5e-6,
            scan_seconds_per_tuple: 1.2e-6,
            disk_seconds_per_page: 120e-6,
            task_startup_seconds: 4e-3,
        }
    }

    /// CPU time to process `n` tuples through one operator.
    pub fn cpu_time(&self, tuples: usize) -> SimTime {
        SimTime::from_secs_f64(self.cpu_seconds_per_tuple * tuples as f64)
    }

    /// Time to scan `tuples` tuples spread over `pages` pages from the
    /// local store.
    pub fn scan_time(&self, tuples: usize, pages: usize) -> SimTime {
        SimTime::from_secs_f64(
            self.scan_seconds_per_tuple * tuples as f64 + self.disk_seconds_per_page * pages as f64,
        )
    }

    /// Fixed fragment-startup cost.
    pub fn startup_time(&self) -> SimTime {
        SimTime::from_secs_f64(self.task_startup_seconds)
    }
}

/// Network characteristics shared by every link of the simulated cluster.
///
/// The paper's WAN experiments shape *per-node* bandwidth (Figure 17's
/// x-axis is "Per-Node Bandwidth KB/sec"), which is exactly how the
/// simulator applies this number: each node's uplink and downlink is
/// limited to `bandwidth_bytes_per_sec`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterProfile {
    /// Per-node link bandwidth in bytes per second.
    pub bandwidth_bytes_per_sec: f64,
    /// One-way message latency in seconds.
    pub latency_seconds: f64,
    /// Hardware profile of every node.
    pub node: NodeProfile,
}

impl ClusterProfile {
    /// The paper's local 16-node Gigabit cluster.
    pub fn lan_cluster() -> ClusterProfile {
        ClusterProfile {
            // Gigabit Ethernet ≈ 117 MB/s of goodput per node.
            bandwidth_bytes_per_sec: 117e6,
            latency_seconds: 0.15e-3,
            node: NodeProfile::cluster_xeon(),
        }
    }

    /// EC2 "large" instances inside one region: plentiful bandwidth but
    /// higher latency and slower virtualised CPUs.
    pub fn ec2_large() -> ClusterProfile {
        ClusterProfile {
            bandwidth_bytes_per_sec: 60e6,
            latency_seconds: 0.8e-3,
            node: NodeProfile::ec2_large(),
        }
    }

    /// A traffic-shaped wide-area deployment: per-node bandwidth in
    /// kilobytes per second and one-way latency in milliseconds, applied
    /// to cluster-class nodes — mirroring the paper's NetEm/HTB setup.
    pub fn wan(per_node_kb_per_sec: f64, latency_ms: f64) -> ClusterProfile {
        ClusterProfile {
            bandwidth_bytes_per_sec: per_node_kb_per_sec * 1000.0,
            latency_seconds: latency_ms / 1000.0,
            node: NodeProfile::cluster_xeon(),
        }
    }

    /// A many-node metropolitan WAN for membership-dissemination studies:
    /// broadband-class per-node links (1 MB/s) with 20 ms one-way latency.
    /// Gossip messages are tiny, so what matters here is latency and the
    /// sheer node count (hundreds to thousands of participants), not
    /// bulk-transfer bandwidth.
    pub fn wan_metro() -> ClusterProfile {
        ClusterProfile::wan(1000.0, 20.0)
    }

    /// Transfer time of `bytes` over one node's link, excluding latency.
    pub fn transfer_time(&self, bytes: usize) -> SimTime {
        SimTime::from_secs_f64(bytes as f64 / self.bandwidth_bytes_per_sec)
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> SimTime {
        SimTime::from_secs_f64(self.latency_seconds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_constructors_are_distinct() {
        let lan = ClusterProfile::lan_cluster();
        let ec2 = ClusterProfile::ec2_large();
        assert!(lan.bandwidth_bytes_per_sec > ec2.bandwidth_bytes_per_sec);
        assert!(lan.node.cpu_seconds_per_tuple < ec2.node.cpu_seconds_per_tuple);
    }

    #[test]
    fn wan_profile_translates_units() {
        let wan = ClusterProfile::wan(400.0, 50.0);
        assert!((wan.bandwidth_bytes_per_sec - 400_000.0).abs() < 1e-6);
        assert!((wan.latency_seconds - 0.05).abs() < 1e-9);
        // 400 KB at 400 KB/s takes one second.
        assert_eq!(wan.transfer_time(400_000), SimTime::from_millis(1_000));
    }

    #[test]
    fn cost_helpers_scale_linearly() {
        let node = NodeProfile::cluster_xeon();
        let t1 = node.cpu_time(1_000);
        let t2 = node.cpu_time(2_000);
        assert_eq!(t2.as_micros(), t1.as_micros() * 2);
        assert!(node.scan_time(1_000, 10) > node.scan_time(1_000, 0));
        assert!(node.startup_time() > SimTime::ZERO);
    }
}
