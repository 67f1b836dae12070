//! Network traffic accounting.
//!
//! Half of the paper's figures plot network traffic — total across the
//! system (Figures 8, 11, 15, 16, 19) or per node (Figures 9, 12, 20).
//! Traffic is counted as the serialized size of every inter-node message
//! at the moment it is handed to [`crate::sim::Simulator::send`], so the
//! numbers are exact for a given execution, not estimates.
//!
//! ## One ledger
//!
//! The simulator counts two totals, bytes and messages.  The per-link
//! breakdown a query report carries is kept by [`TrafficStats`], one per
//! query session, recorded beside each of the session's own sends: a
//! session's traffic stays exact when several share one simulator, and a
//! simulator that no one asks for links (a thousand-node gossip cluster)
//! keeps none.
//!
//! A session spans at most the engine's 256 nodes, so the links are one
//! short vector per *source*, holding `(destination, bytes)` sorted by
//! destination: recording a message is a binary search over the
//! destinations its source has written to, and walking the sources in id
//! order yields links in `(src, dst)` order with no sorting.

use orchestra_common::NodeId;

/// Byte and message counters, total and per directed link.
#[derive(Clone, Debug, Default)]
pub struct TrafficStats {
    total_bytes: u64,
    total_messages: u64,
    /// Indexed by source id: the destinations it has sent to, ascending,
    /// each with the bytes carried.
    link_bytes: Vec<Vec<(NodeId, u64)>>,
}

impl TrafficStats {
    /// Fresh, all-zero counters.
    pub fn new() -> TrafficStats {
        TrafficStats::default()
    }

    /// Record one inter-node message of `bytes` bytes from `src` to `dst`.
    pub fn record(&mut self, src: NodeId, dst: NodeId, bytes: usize) {
        let bytes = bytes as u64;
        self.total_messages += 1;
        self.total_bytes += bytes;
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

    /// Total number of inter-node messages.
    pub fn total_messages(&self) -> u64 {
        self.total_messages
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
        assert_eq!(s.link(NodeId(0), NodeId(1)), 1000);
        assert_eq!(s.link(NodeId(0), NodeId(2)), 500);
        assert_eq!(s.link(NodeId(1), NodeId(0)), 250);
        assert_eq!(s.link(NodeId(1), NodeId(2)), 0);
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
        assert_eq!(s.total_messages(), 9);
        assert_eq!(s.link(NodeId(3), NodeId(1)), 36);
        assert_eq!(s.link(NodeId(1), NodeId(3)), 0);
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
        assert_eq!(s.total_messages(), 0);
        assert_eq!(s.links().count(), 0);
    }
}
