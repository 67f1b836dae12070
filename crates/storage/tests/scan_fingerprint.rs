//! The read path's observable behaviour, pinned.
//!
//! Partition scans and delta scans must return the same tuples **in the
//! same order** with the same `pages_read` / `tuples_read` /
//! `remote_lookups` / `remote_transfers` as the seed implementation — on a
//! healthy cluster, with a failed owner (lookups fail over to replicas),
//! and under a routing table the data was never placed by (lookups fall
//! through to every live node) — because scan emission order and the
//! remote-fetch accounting feed every simulated figure.  The fingerprints
//! below were recorded at the commit before index pages cached ring
//! positions and stores shared `Arc`s, with the owning
//! `DistributedStorage::delta_partition` of that commit where this file
//! now calls `view().delta_partition_ref`; apart from that one call it
//! uses only API that exists on both sides, so it can be re-recorded
//! there.

mod common;

use common::{routing_over, seeded_store, NODES};
use orchestra_common::sha1::{sha1, to_hex};
use orchestra_common::{Epoch, KeyRange, NodeId, NodeSet, Tuple};
use orchestra_storage::{anti_entropy, DistributedStorage};

/// Everything the scans returned, serialized in order, plus the number of
/// lookups that left the scanning node (to check a scenario bites).
#[derive(Default)]
struct Trace(Vec<u8>, usize);

impl Trace {
    fn count(&mut self, n: usize) {
        self.0.extend_from_slice(&(n as u64).to_be_bytes());
    }

    fn tuple(&mut self, tuple: &Tuple, sign: i8) {
        tuple.encode_to(&mut self.0);
        self.0.push(sign as u8);
    }

    fn counters(&mut self, pages: usize, tuples: usize, remote: usize, from: &[(NodeId, usize)]) {
        self.count(pages);
        self.count(tuples);
        self.count(remote);
        self.1 += remote;
        for (node, bytes) in from {
            self.count(node.index());
            self.count(*bytes);
        }
    }

    fn scan(&mut self, s: &DistributedStorage, epoch: Epoch, node: NodeId, owner: NodeId) {
        let ranges = s.routing().ranges_of(owner);
        for relation in ["R", "N"] {
            let scan = s.scan_partition(relation, epoch, node, &ranges).unwrap();
            for tuple in &scan.tuples {
                self.tuple(tuple, 1);
            }
            self.counters(
                scan.pages_read,
                scan.tuples_read,
                scan.remote_lookups,
                &scan.remote_transfers,
            );
        }
    }

    fn delta(&mut self, s: &DistributedStorage, from: Epoch, to: Epoch, node: NodeId) {
        let ranges = s.routing().ranges_of(node);
        let scan = s.view().delta_partition_ref("R", from, to, node, &ranges);
        let scan = scan.unwrap();
        for (tuple, sign) in &scan.tuples {
            self.tuple(tuple, *sign);
        }
        self.counters(
            scan.pages_read,
            scan.tuples_read,
            scan.remote_lookups,
            &scan.remote_transfers,
        );
    }

    fn finish(self) -> String {
        to_hex(&sha1(&self.0))[..16].to_string()
    }
}

/// Every live node scans its own ranges at every epoch and reads three
/// delta intervals (whole history, one step, empty).
fn sweep(s: &DistributedStorage, epochs: &[Epoch]) -> Trace {
    let mut trace = Trace::default();
    let last = *epochs.last().unwrap();
    for node in s.routing().nodes() {
        if s.failed_nodes().contains(node) {
            continue;
        }
        for epoch in epochs {
            trace.scan(s, *epoch, node, node);
        }
        trace.delta(s, epochs[0], last, node);
        trace.delta(s, epochs[1], epochs[2], node);
        trace.delta(s, last, last, node);
    }
    trace
}

#[test]
fn scans_and_deltas_match_the_recorded_seed_behaviour() {
    let (mut s, epochs) = seeded_store();
    let last = *epochs.last().unwrap();
    let mut got = Vec::new();

    let trace = sweep(&s, &epochs);
    assert_eq!(trace.1, 0, "co-location: a healthy cluster scans locally");
    got.push(("healthy", trace.finish()));

    // A failed owner: survivors scan their own ranges, and two of them —
    // a replica holder and a stranger — also read the dead node's ranges,
    // which are served by its replicas.
    let victim = NodeId(3);
    s.mark_failed(victim);
    let mut trace = sweep(&s, &epochs);
    for reader in [NodeId(4), NodeId(0)] {
        trace.scan(&s, last, reader, victim);
        trace.scan(&s, epochs[0], reader, victim);
    }
    assert!(
        trace.1 > 0,
        "the stranger fetches from the victim's replicas"
    );
    got.push(("failed owner", trace.finish()));

    // The survivors take over the victim's ranges.
    let recovery = s
        .routing()
        .reassign_failed(&NodeSet::singleton(victim))
        .unwrap();
    s.set_routing(recovery);
    got.push(("reassigned", sweep(&s, &epochs).finish()));

    // A bigger cluster's table, before any repair: the new owners hold
    // nothing, so lookups fall through the replicas to every live node.
    s.set_routing(routing_over(NODES + 4));
    let trace = sweep(&s, &epochs);
    assert!(
        trace.1 > 0,
        "unplaced data is fetched from wherever it lives"
    );
    got.push(("unrepaired", trace.finish()));

    anti_entropy(&mut s).unwrap();
    got.push(("repaired", sweep(&s, &epochs).finish()));
    assert_eq!(
        sweep(&s.clone(), &epochs).finish(),
        got.last().unwrap().1,
        "a clone reads exactly like its original"
    );

    let recorded = [
        ("healthy", "7eac26fb2d29d37f"),
        ("failed owner", "0c9b2723c0d27657"),
        ("reassigned", "6bb38fedbee6b1e5"),
        ("unrepaired", "b8b78dee18853500"),
        ("repaired", "f9986e8ea5cbdda5"),
    ];
    let got: Vec<(&str, &str)> = got.iter().map(|(k, v)| (*k, v.as_str())).collect();
    assert_eq!(got, recorded);
}

/// A scanning node the store has no slot for (a joiner the cluster has
/// not grown to yet) holds nothing locally: the probe of the `preferred`
/// node must fall through to the replicas, not index past the stores.
#[test]
fn a_scanning_node_without_a_store_reads_through_the_replicas() {
    let (s, _) = seeded_store();
    let full = [KeyRange::full()];
    let member = s
        .view()
        .scan_partition_ref("R", Epoch(0), NodeId(0), &full)
        .unwrap();
    let stranger = s
        .view()
        .scan_partition_ref("R", Epoch(0), NodeId(200), &full)
        .unwrap();
    assert_eq!(stranger.tuples, member.tuples);
    assert_eq!(
        stranger.remote_lookups, stranger.tuples_read,
        "nothing is local to a node without a store"
    );
}
