//! The `churn` experiment: gossip membership under sustained change.
//!
//! Two scenarios, both enforced in-run (a violated invariant fails the
//! whole bench run, so CI cannot silently publish a broken figure):
//!
//! * **Convergence points** — a cluster of `n` nodes absorbs a burst of
//!   churn (crashes, a graceful leave, two joins) and must converge back
//!   to a uniform membership view within the epidemic bound
//!   `3·⌈log2 n⌉ + 4` rounds at fanout 2, for every configured `n`
//!   (CI gates 100 and 1000).  Rounds, rumor bytes and message counts
//!   come from the simulator's exact accounting.
//!
//! * **Sustained churn** — a small engine-backed cluster rides out a
//!   Poisson join/leave/crash stream ([`orchestra_workloads::churn`])
//!   for several epochs.  Each epoch the initiator plans a query against
//!   its own *possibly stale* gossip view after a single round of
//!   dissemination; the answer must match the reference exactly —
//!   staleness may cost recovery time, never correctness.  The view then
//!   converges (within the log bound), the routing table follows the
//!   ground truth under the configured [`ReplicationPolicy`], and
//!   anti-entropy repairs placement before the next epoch's departures.
//!
//! `--heavy` adds a 1000-node sustained stream (gossip-only:
//! the engine's dense node sets stop at 256 ids, the membership layer
//! does not).

use crate::json::Json;
use orchestra_common::{
    ColumnType, Epoch, NodeId, NodeSet, OrchestraError, Relation, Result, Schema, Tuple, Value,
};
use orchestra_engine::{EngineConfig, PhysicalPlan, PlanBuilder, QueryExecutor};
use orchestra_simnet::ClusterProfile;
use orchestra_storage::{anti_entropy, DistributedStorage, StorageConfig, UpdateBatch};
use orchestra_substrate::gossip::FANOUT;
use orchestra_substrate::{
    AllocationScheme, Gossip, GossipConfig, MembershipChange, ReplicationPolicy, RoutingTable,
};
use orchestra_workloads::{churn_stream, ChurnSpec};

/// Shape of the churn experiment.
#[derive(Clone, Debug)]
pub struct ChurnBenchSpec {
    /// Cluster sizes for the convergence-bound points.
    pub convergence_sizes: Vec<usize>,
    /// Epochs of the sustained engine-backed scenario.
    pub epochs: usize,
    /// Initial live nodes of the sustained scenario.
    pub initial_nodes: usize,
    /// Node-id universe of the sustained scenario (bounds joins).
    pub universe: usize,
    /// Rows seeded into the scanned relation.
    pub rows: i64,
    /// Replication policy driving both data placement and the stale
    /// snapshots initiators derive from their gossip views.
    pub policy: ReplicationPolicy,
    /// Cluster size of the heavy gossip-only sustained scenario
    /// (`0` skips it; `--heavy` passes 1000).
    pub heavy_nodes: usize,
    /// Seed for every random draw of the experiment.
    pub seed: u64,
}

impl Default for ChurnBenchSpec {
    fn default() -> Self {
        ChurnBenchSpec {
            convergence_sizes: vec![100, 1000],
            epochs: 6,
            initial_nodes: 8,
            universe: 24,
            rows: 240,
            policy: ReplicationPolicy::PercentageOfNodes(0.35),
            heavy_nodes: 0,
            seed: 0x0c48,
        }
    }
}

/// The epidemic convergence bound enforced throughout: `3·⌈log2 n⌉ + 4`
/// rounds at fanout 2 (push gossip reaches all n members in `O(log n)`
/// rounds with overwhelming probability; the constants absorb the
/// unlucky tail so the gate is deterministic-friendly).
fn log_round_bound(n: usize) -> u64 {
    let ceil_log2 = if n <= 1 {
        0
    } else {
        (usize::BITS - (n - 1).leading_zeros()) as u64
    };
    3 * ceil_log2 + 4
}

/// Run the whole experiment.  `rumor_bytes` count the simulator's bytes
/// on the wire (an epoch's: dissemination and convergence), `dropped` the
/// messages lost at departed participants, `staleness_*` the
/// ground-truth records a view lagged, and `tuples_copied` what
/// anti-entropy copied to restore placement.  The totals sum the
/// convergence points and the sustained epochs; the `heavy` epochs
/// never enter them.
pub fn run_churn(spec: &ChurnBenchSpec) -> Result<Json> {
    let mut convergence = Vec::with_capacity(spec.convergence_sizes.len());
    for &n in &spec.convergence_sizes {
        convergence.push(convergence_point(n, spec.seed)?);
    }
    let sustained = sustained_with_queries(spec)?;
    let sum = |points: &[Json], key| points.iter().map(|p| p.num(key)).sum::<Result<f64>>();
    let rounds = sum(&convergence, "rounds")? + sum(&sustained, "convergence_rounds")?;
    let rumor_bytes = sum(&convergence, "rumor_bytes")? + sum(&sustained, "rumor_bytes")?;
    let mut fields = vec![
        ("convergence", Json::Array(convergence)),
        ("sustained", Json::Array(sustained)),
        ("total_convergence_rounds", Json::UInt(rounds as u64)),
        ("total_rumor_bytes", Json::UInt(rumor_bytes as u64)),
    ];
    if spec.heavy_nodes > 0 {
        let heavy = sustained_gossip_only(spec.heavy_nodes, spec.epochs, spec.seed)?;
        fields.push(("heavy", Json::Array(heavy)));
    }
    Ok(Json::object(fields))
}

/// One convergence point: a burst of churn at cluster size `n`, run to
/// uniformity under the enforced `O(log n)` bound.
fn convergence_point(n: usize, seed: u64) -> Result<Json> {
    if n < 8 {
        return Err(OrchestraError::Execution(format!(
            "convergence points need at least 8 nodes, got {n}"
        )));
    }
    let cfg = GossipConfig { seed };
    let mut gossip = Gossip::new(n, n + 8, cfg, ClusterProfile::wan_metro());
    // The burst: three crashes and a graceful leave spread around the id
    // space, plus two fresh joins — every rumor kind at once.
    let burst = [
        MembershipChange::Failed(NodeId((n / 5) as u16)),
        MembershipChange::Failed(NodeId((2 * n / 5) as u16)),
        MembershipChange::Failed(NodeId((3 * n / 5) as u16)),
        MembershipChange::Left(NodeId((4 * n / 5) as u16)),
        MembershipChange::Joined(NodeId(n as u16)),
        MembershipChange::Joined(NodeId(n as u16 + 1)),
    ];
    for change in burst {
        gossip.inject(change)?;
    }
    let round_bound = log_round_bound(n + 2);
    let rounds = gossip.run_until_converged(round_bound).map_err(|e| {
        OrchestraError::Execution(format!(
            "churn enforcement: n={n} failed the O(log n) convergence bound \
             of {round_bound} rounds at fanout {FANOUT}: {e}"
        ))
    })?;
    Ok(Json::object(vec![
        ("nodes", Json::UInt(n as u64)),
        ("fanout", Json::UInt(FANOUT as u64)),
        ("rounds", Json::UInt(rounds)),
        ("round_bound", Json::UInt(round_bound)),
        ("rumor_bytes", Json::UInt(gossip.total_bytes())),
        ("messages", Json::UInt(gossip.messages_sent())),
        ("dropped", Json::UInt(gossip.dropped_messages())),
    ]))
}

/// Build the scanned relation's plan: scan → ship → output.
fn scan_plan() -> PhysicalPlan {
    let mut b = PlanBuilder::new();
    let scan = b.scan("R", 2, None);
    let ship = b.ship(scan);
    b.output(ship)
}

/// The sustained engine-backed scenario (see the module doc).
fn sustained_with_queries(spec: &ChurnBenchSpec) -> Result<Vec<Json>> {
    let initiator = NodeId(0);
    let initial: Vec<NodeId> = (0..spec.initial_nodes as u16).map(NodeId).collect();
    let routing =
        RoutingTable::build_with_policy(&initial, AllocationScheme::Balanced, spec.policy);
    let mut storage = DistributedStorage::new(routing, StorageConfig::default());
    storage.register_relation(Relation::partitioned(
        "R",
        Schema::keyed_on_first(vec![("k", ColumnType::Int), ("v", ColumnType::Str)]),
    ));
    let mut reference = Vec::new();
    let mut batch = UpdateBatch::new();
    for k in 0..spec.rows {
        let t = Tuple::new(vec![Value::Int(k), Value::str("v0")]);
        batch.insert("R", t.clone());
        reference.push(t);
    }
    storage.publish(&batch)?;
    reference.sort();
    let plan = scan_plan();

    let cfg = GossipConfig { seed: spec.seed };
    let mut gossip = Gossip::new(
        spec.initial_nodes,
        spec.universe,
        cfg,
        ClusterProfile::wan_metro(),
    );
    let stream = churn_stream(
        spec.universe,
        spec.initial_nodes,
        &[initiator],
        &ChurnSpec {
            epochs: spec.epochs,
            arrivals_per_epoch: 1.5,
            departures_per_epoch: 1.5,
            crash_fraction: 0.5,
            min_live: spec.initial_nodes.saturating_sub(3).max(4),
            seed: spec.seed,
        },
    )?;

    let mut departed: Vec<NodeId> = Vec::new();
    let mut points = Vec::with_capacity(stream.len());
    for e in 0..stream.len() {
        let bytes_before = gossip.total_bytes();
        for change in stream.epoch(e) {
            gossip.inject(*change)?;
            match change {
                MembershipChange::Joined(n) => {
                    departed.retain(|d| d != n);
                    storage.mark_recovered(*n);
                }
                MembershipChange::Left(n) | MembershipChange::Failed(n) => departed.push(*n),
            }
        }
        // One round of dissemination: enough for rumors to start
        // spreading, not enough to converge — the initiator's view is
        // genuinely stale when the query plans against it.
        gossip.run_round();
        let staleness = gossip.staleness_of(initiator);
        let snapshot = gossip
            .view(initiator)
            .ok_or_else(|| {
                OrchestraError::Execution(format!("initiator {initiator} lost its view"))
            })?
            .snapshot(AllocationScheme::Balanced, spec.policy)?;
        let mut departed_set = NodeSet::empty();
        for node in &departed {
            departed_set.insert(*node);
        }
        let report = QueryExecutor::new(&storage, EngineConfig::default())
            .execute_with_stale_snapshot(&plan, Epoch(0), initiator, &snapshot, &departed_set)?;
        let mut rows = report.rows.clone();
        rows.sort();
        if rows != reference {
            return Err(OrchestraError::Execution(format!(
                "churn enforcement: epoch {e} answered {} rows against a \
                 reference of {} under a stale snapshot (staleness {staleness})",
                rows.len(),
                reference.len()
            )));
        }

        let round_bound = log_round_bound(spec.universe);
        let convergence_rounds = gossip.run_until_converged(round_bound).map_err(|e2| {
            OrchestraError::Execution(format!(
                "churn enforcement: epoch {e} failed the convergence bound \
                 of {round_bound} rounds: {e2}"
            ))
        })?;

        // Adopt the converged truth: rebuild placement under the policy,
        // mark the departed, repair with anti-entropy.
        let live = gossip.live_nodes();
        let truth = RoutingTable::build_with_policy(&live, AllocationScheme::Balanced, spec.policy);
        let replication_factor = truth.replication_factor();
        storage.set_routing(truth);
        for node in &departed {
            storage.mark_failed(*node);
        }
        let repair = anti_entropy(&mut storage)?;

        points.push(Json::object(vec![
            ("epoch", Json::UInt(e as u64)),
            ("events", Json::UInt(stream.epoch(e).len() as u64)),
            ("live_after", Json::UInt(live.len() as u64)),
            ("replication_factor", Json::UInt(replication_factor as u64)),
            ("staleness_at_query", Json::UInt(staleness as u64)),
            ("query_recovered", Json::Bool(report.recovered)),
            ("convergence_rounds", Json::UInt(convergence_rounds)),
            ("round_bound", Json::UInt(round_bound)),
            (
                "rumor_bytes",
                Json::UInt(gossip.total_bytes() - bytes_before),
            ),
            ("tuples_copied", Json::UInt(repair.tuples_copied as u64)),
        ]));
    }
    Ok(points)
}

/// The heavy sustained scenario: a 1000-node (`--heavy`) cluster riding a
/// denser Poisson stream, gossip-layer only.  An epoch's
/// `staleness_sample` is taken at the lowest-id live node after two
/// rounds.
fn sustained_gossip_only(nodes: usize, epochs: usize, seed: u64) -> Result<Vec<Json>> {
    let universe = nodes + nodes / 10 + 8;
    let cfg = GossipConfig { seed };
    let mut gossip = Gossip::new(nodes, universe, cfg, ClusterProfile::wan_metro());
    let stream = churn_stream(
        universe,
        nodes,
        &[],
        &ChurnSpec {
            epochs,
            arrivals_per_epoch: 6.0,
            departures_per_epoch: 6.0,
            crash_fraction: 0.5,
            min_live: nodes / 2,
            seed,
        },
    )?;
    let mut points = Vec::with_capacity(stream.len());
    for e in 0..stream.len() {
        let bytes_before = gossip.total_bytes();
        for change in stream.epoch(e) {
            gossip.inject(*change)?;
        }
        gossip.run_round();
        gossip.run_round();
        let probe = gossip.live_nodes()[0];
        let staleness_sample = gossip.staleness_of(probe);
        let round_bound = log_round_bound(universe);
        let convergence_rounds = gossip.run_until_converged(round_bound).map_err(|e2| {
            OrchestraError::Execution(format!(
                "churn enforcement: heavy epoch {e} failed the convergence \
                 bound of {round_bound} rounds: {e2}"
            ))
        })?;
        points.push(Json::object(vec![
            ("epoch", Json::UInt(e as u64)),
            ("events", Json::UInt(stream.epoch(e).len() as u64)),
            ("live_after", Json::UInt(gossip.live_nodes().len() as u64)),
            ("staleness_sample", Json::UInt(staleness_sample as u64)),
            ("convergence_rounds", Json::UInt(convergence_rounds)),
            ("round_bound", Json::UInt(round_bound)),
            (
                "rumor_bytes",
                Json::UInt(gossip.total_bytes() - bytes_before),
            ),
        ]));
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> ChurnBenchSpec {
        ChurnBenchSpec {
            convergence_sizes: vec![32],
            epochs: 3,
            rows: 120,
            ..ChurnBenchSpec::default()
        }
    }

    #[test]
    fn churn_experiment_is_deterministic() {
        let a = run_churn(&small_spec()).unwrap();
        let b = run_churn(&small_spec()).unwrap();
        assert_eq!(a.render(), b.render());
    }

    #[test]
    fn convergence_points_respect_their_bound_and_count_bytes() {
        let report = run_churn(&small_spec()).unwrap();
        assert_eq!(report.get("convergence").unwrap().items().unwrap().len(), 1);
        let num = |key: &str| report.num(&format!("convergence.0.{key}")).unwrap();
        assert_eq!(num("nodes"), 32.0);
        assert!(num("rounds") <= num("round_bound"));
        assert!(num("rumor_bytes") > 0.0);
        assert!(num("messages") > 0.0);
        assert!(report.get("heavy").is_none());
    }

    #[test]
    fn sustained_epochs_query_correctly_and_repair_placement() {
        let report = run_churn(&small_spec()).unwrap();
        let sustained = report.get("sustained").unwrap().items().unwrap();
        assert_eq!(sustained.len(), 3);
        // The stream has churn, so at least one epoch sees staleness or
        // a recovery; every epoch stayed within its bound (enforced
        // in-run, re-checked here).
        for p in sustained {
            assert!(p.num("convergence_rounds").unwrap() <= p.num("round_bound").unwrap());
        }
        assert!(report.num("total_convergence_rounds").unwrap() > 0.0);
        assert!(report.num("total_rumor_bytes").unwrap() > 0.0);
    }

    #[test]
    fn heavy_scenario_is_gossip_only_and_bounded() {
        let spec = ChurnBenchSpec {
            convergence_sizes: vec![],
            epochs: 2,
            heavy_nodes: 64,
            ..ChurnBenchSpec::default()
        };
        let report = run_churn(&spec).unwrap();
        let heavy = report.get("heavy").unwrap().items().unwrap();
        assert_eq!(heavy.len(), 2);
        for p in heavy {
            assert!(p.num("convergence_rounds").unwrap() <= p.num("round_bound").unwrap());
            assert!(p.num("live_after").unwrap() >= 32.0);
        }
        // Heavy points never enter the totals.
        let sustained = report.get("sustained").unwrap().items().unwrap();
        let bytes: f64 = sustained
            .iter()
            .map(|p| p.num("rumor_bytes").unwrap())
            .sum();
        assert_eq!(report.num("total_rumor_bytes").unwrap(), bytes);
    }
}
