//! Gossip's observable behaviour, pinned.
//!
//! Every simulated membership figure — convergence rounds, rumor bytes,
//! messages placed on the wire and dropped at departed nodes — and every
//! view's contents follow from the order in which peers are picked and
//! rumors merged, so a change of view representation must reproduce them
//! exactly.  The fingerprints below were recorded at the commit before
//! views became dense vectors and rumor batches shared (`bc24ee4`); this
//! file uses only API that exists on both sides of that change, so it can
//! be re-recorded there.

use orchestra_common::rng;
use orchestra_common::sha1::{sha1, to_hex};
use orchestra_common::NodeId;
use orchestra_simnet::ClusterProfile;
use orchestra_substrate::{
    AllocationScheme, Gossip, GossipConfig, MembershipChange, ReplicationPolicy,
};

const SEEDS: [u64; 2] = [42, 7];
const SCHEME: AllocationScheme = AllocationScheme::Balanced;
const POLICY: ReplicationPolicy = ReplicationPolicy::FixedFactor(4);
const INITIATOR: NodeId = NodeId(0);

/// `(rounds, total_bytes, messages_sent, dropped_messages, Σ version,
/// hash of the views)`.
type Fingerprint = (u64, u64, u64, u64, u64, &'static str);

fn cluster(initial: usize, universe: usize, seed: u64) -> Gossip {
    let config = GossipConfig { seed };
    Gossip::new(initial, universe, config, ClusterProfile::wan_metro())
}

fn push_ids(bytes: &mut Vec<u8>, ids: &[NodeId]) {
    bytes.extend_from_slice(&(ids.len() as u32).to_be_bytes());
    for id in ids {
        bytes.extend_from_slice(&id.0.to_be_bytes());
    }
}

/// Every live view's believed-alive list and the initiator's accepted
/// history, appended to `bytes` (which may already hold what a scenario
/// observed on the way).
fn push_views(bytes: &mut Vec<u8>, g: &Gossip) {
    for node in g.live_nodes() {
        bytes.extend_from_slice(&node.0.to_be_bytes());
        push_ids(bytes, g.view(node).expect("live").alive_nodes());
    }
    for change in g.view(INITIATOR).expect("live").history() {
        let (tag, node) = match change {
            MembershipChange::Joined(n) => (0u8, n),
            MembershipChange::Left(n) => (1, n),
            MembershipChange::Failed(n) => (2, n),
        };
        bytes.push(tag);
        bytes.extend_from_slice(&node.0.to_be_bytes());
    }
}

fn check(name: &str, seed: u64, g: &Gossip, rounds: u64, mut observed: Vec<u8>, want: Fingerprint) {
    push_views(&mut observed, g);
    let versions: u64 = g
        .live_nodes()
        .iter()
        .map(|n| g.view(*n).expect("live").version())
        .sum();
    let got = (
        rounds,
        g.total_bytes(),
        g.messages_sent(),
        g.dropped_messages(),
        versions,
        to_hex(&sha1(&observed))[..16].to_string(),
    );
    let want = (want.0, want.1, want.2, want.3, want.4, want.5.to_string());
    assert_eq!(got, want, "{name} at seed {seed}");
}

/// `3·⌈log₂ n⌉ + 4`.
fn round_bound(n: usize) -> u64 {
    3 * ((n.max(2) - 1).ilog2() as u64 + 1) + 4
}

/// The burst schedule the host benchmark's `churn_failover` drives on its
/// thousand-node cluster: each operation the previous five losses rejoin,
/// five more nodes fail, gossip converges.
#[test]
fn thousand_node_failure_bursts() {
    const NODES: usize = 1_000;
    const WANT: [Fingerprint; 2] = [
        (65, 14014234, 120906, 318, 54725, "7961ecf92ea10624"),
        (64, 13729318, 118584, 299, 54725, "638534d99619e088"),
    ];
    for (seed, want) in SEEDS.into_iter().zip(WANT) {
        let mut g = cluster(NODES, NODES, seed);
        let mut down: Vec<NodeId> = Vec::new();
        let mut rounds = 0;
        for e in 0..6 {
            let mut burst: Vec<MembershipChange> =
                down.drain(..).map(MembershipChange::Joined).collect();
            for k in 0..5 {
                let node = NodeId((1 + (e * 131 + k * 197) % (NODES - 1)) as u16);
                if !down.contains(&node) && !burst.contains(&MembershipChange::Joined(node)) {
                    down.push(node);
                    burst.push(MembershipChange::Failed(node));
                }
            }
            for change in burst {
                g.inject(change).unwrap();
            }
            rounds += g.run_until_converged(round_bound(NODES)).unwrap();
        }
        check("failure bursts", seed, &g, rounds, Vec::new(), want);
    }
}

/// A mixed stream of joins, graceful departures and crashes over 64 of 96
/// ids; each epoch a query initiator takes a routing snapshot from its
/// still-stale view one round after the events.
#[test]
fn mixed_churn_with_stale_snapshots() {
    const INITIAL: usize = 64;
    const UNIVERSE: usize = 96;
    const WANT: [Fingerprint; 2] = [
        (73, 594530, 9412, 90, 2448, "74859fbda942a665"),
        (75, 578536, 9632, 75, 2397, "0bfe84a2996a230c"),
    ];
    for (seed, want) in SEEDS.into_iter().zip(WANT) {
        let mut g = cluster(INITIAL, UNIVERSE, seed);
        let mut schedule = rng::seeded_stream(seed, "gossip-fingerprint-churn");
        let mut observed = Vec::new();
        let mut rounds = 0;
        for _epoch in 0..12 {
            for _event in 0..3 {
                let live = g.live_nodes();
                let change = if schedule.random_bool(0.5) && live.len() > INITIAL - 8 {
                    // A departure, never of the initiator.
                    let node = live[schedule.random_range(1..live.len())];
                    if schedule.random_bool(0.5) {
                        MembershipChange::Failed(node)
                    } else {
                        MembershipChange::Left(node)
                    }
                } else {
                    let absent: Vec<NodeId> = (0..UNIVERSE as u16)
                        .map(NodeId)
                        .filter(|n| !live.contains(n))
                        .collect();
                    MembershipChange::Joined(absent[schedule.random_range(0..absent.len())])
                };
                g.inject(change).unwrap();
            }
            g.run_round();
            rounds += 1;
            observed.extend_from_slice(&(g.staleness_of(INITIATOR) as u32).to_be_bytes());
            let snapshot = g
                .view(INITIATOR)
                .expect("protected")
                .snapshot(SCHEME, POLICY)
                .unwrap();
            push_ids(&mut observed, &snapshot.nodes());
            rounds += g.run_until_converged(round_bound(UNIVERSE)).unwrap();
        }
        check("mixed churn", seed, &g, rounds, observed, want);
    }
}

/// A crash whose only witness crashes before gossiping: the failure is
/// re-learnt by probes, which evict their target from the prober's view
/// in the middle of a round.
#[test]
fn probes_evict_a_target_nobody_reported() {
    const WANT: [Fingerprint; 2] = [
        (19, 24490, 652, 29, 108, "cb74757c4474d78c"),
        (16, 22660, 550, 21, 108, "c71914743e58a47e"),
    ];
    for (seed, want) in SEEDS.into_iter().zip(WANT) {
        let mut g = cluster(24, 32, seed);
        let mut rounds = 0;
        // The detector of node k is node k + 1.
        for lost in [3u16, 11, 17] {
            g.inject(MembershipChange::Failed(NodeId(lost))).unwrap();
            g.inject(MembershipChange::Failed(NodeId(lost + 1)))
                .unwrap();
            for n in g.live_nodes() {
                assert!(g.view(n).unwrap().alive_nodes().contains(&NodeId(lost)));
            }
            rounds += g.run_until_converged(64).unwrap();
        }
        check("evicting probes", seed, &g, rounds, Vec::new(), want);
    }
}

/// Forced full-state rounds: every record of every view on the wire.
#[test]
fn forced_sync_rounds() {
    const WANT: [Fingerprint; 2] = [
        (6, 84702, 436, 9, 158, "4adffc9331855339"),
        (8, 91954, 584, 11, 160, "4adffc9331855339"),
    ];
    for (seed, want) in SEEDS.into_iter().zip(WANT) {
        let mut g = cluster(40, 48, seed);
        g.inject(MembershipChange::Joined(NodeId(44))).unwrap();
        g.inject(MembershipChange::Left(NodeId(9))).unwrap();
        g.inject(MembershipChange::Failed(NodeId(21))).unwrap();
        g.run_sync_round();
        g.run_round();
        g.inject(MembershipChange::Joined(NodeId(21))).unwrap();
        g.run_sync_round();
        let rounds = 3 + g.run_until_converged(64).unwrap();
        check("sync rounds", seed, &g, rounds, Vec::new(), want);
    }
}
