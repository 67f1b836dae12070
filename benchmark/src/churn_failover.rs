//! `churn_failover`: membership churn and failure, where the substrate's
//! gossip, whole-store cloning and the engine's recovery do the work.
//!
//! One operation is one churn epoch, as `crates/bench/src/churn.rs` runs
//! it: inject the epoch's joins and departures, gossip one round, plan a
//! query on the initiator's still-stale snapshot, let gossip converge,
//! adopt the truth (new routing table, anti-entropy), then run a second
//! query that loses a node halfway.  Beside it a gossip-only cluster of a
//! thousand nodes absorbs a burst of failures.

use crate::harness::Tracer;
use crate::probes;
use crate::workload::{
    expect_rows, Failure, OpResult, Plan, Scale, Stats, Workload, SCHEDULE_SEED,
};
use orchestra_common::{Epoch, NodeId, NodeSet, Result, Tuple};
use orchestra_engine::{
    EngineConfig, FailureSpec, PhysicalPlan, QueryExecutor, QueryReport, RecoveryStrategy,
};
use orchestra_optimizer::{compile, Statistics};
use orchestra_simnet::{ClusterProfile, SimTime};
use orchestra_storage::{anti_entropy, DistributedStorage, StorageConfig};
use orchestra_substrate::{
    AllocationScheme, Gossip, GossipConfig, MembershipChange, ReplicationPolicy, RoutingTable,
};
use orchestra_workloads::{
    churn_stream, ChurnSpec, ChurnStream, TpchQuery, TpchWorkload, Workload as Catalogue,
};

const INITIAL_NODES: usize = 64;
const UNIVERSE: usize = 96;
const LINEITEM_ROWS: usize = 10_000;
const POLICY: ReplicationPolicy = ReplicationPolicy::FixedFactor(4);
const SCHEME: AllocationScheme = AllocationScheme::Balanced;
const INITIATOR: NodeId = NodeId(0);
/// The gossip-only cluster beside the engine-backed one.
const WIDE_NODES: usize = 1_000;
/// Nodes the wide cluster loses per operation; the previous operation's
/// losses rejoin first, so its population stays put.
const WIDE_BURST: usize = 5;

/// Churn epochs between fresh deployments of the store.  Anti-entropy
/// copies tuples to their new owners and nothing ever removes the old
/// copies, so a store that rode the whole run would grow with every
/// epoch and the operations with it; a round bounds that growth.
const ROUND: usize = 4;

pub const PLAN: Plan = Plan {
    warm_up: ROUND,
    round: ROUND,
    ops_per_second: 2.0,
};

/// `3·⌈log₂ n⌉ + 4`: the rounds within which gossip must converge.
fn round_bound(n: usize) -> u64 {
    let ceil_log2 = (n.max(2) - 1).ilog2() as u64 + 1;
    3 * ceil_log2 + 4
}

struct Query {
    plan: PhysicalPlan,
    reference: Vec<Tuple>,
}

pub struct ChurnFailover {
    data: TpchWorkload,
    storage: DistributedStorage,
    epoch: Epoch,
    join: Query,
    aggregate: Query,
    gossip: Gossip,
    stream: ChurnStream,
    departed: Vec<NodeId>,
    wide: Gossip,
    wide_nodes: usize,
    /// Nodes the wide cluster lost in the previous operation.
    wide_down: Vec<NodeId>,
}

impl ChurnFailover {
    pub fn set_up(seed: u64, scale: Scale, ops: usize) -> Result<ChurnFailover> {
        let lineitems = scale.rows(LINEITEM_ROWS, 800);
        let q1 = TpchWorkload::scaled(TpchQuery::Q1, seed, lineitems);
        let q3 = TpchWorkload::scaled(TpchQuery::Q3, seed, lineitems);

        let initial: Vec<NodeId> = (0..INITIAL_NODES as u16).map(NodeId).collect();
        let (storage, epoch) = Self::deploy(&q1, &initial)?;

        let statistics = Statistics::collect(&storage, epoch);
        let query = |w: &TpchWorkload| -> Result<Query> {
            Ok(Query {
                plan: compile(&w.logical(), &statistics)?,
                reference: w.reference(),
            })
        };
        let gossip_config = GossipConfig {
            seed,
            ..GossipConfig::default()
        };
        let stream = churn_stream(
            UNIVERSE,
            INITIAL_NODES,
            &[INITIATOR],
            &ChurnSpec {
                epochs: ops,
                arrivals_per_epoch: 1.5,
                departures_per_epoch: 1.5,
                crash_fraction: 0.5,
                min_live: INITIAL_NODES - 8,
                seed: SCHEDULE_SEED,
            },
        )?;
        let wide_nodes = scale.rows(WIDE_NODES, 64);
        Ok(ChurnFailover {
            data: q1,
            join: query(&q3)?,
            aggregate: query(&q1)?,
            storage,
            epoch,
            gossip: Gossip::new(
                INITIAL_NODES,
                UNIVERSE,
                gossip_config,
                ClusterProfile::wan_metro(),
            ),
            stream,
            departed: Vec::new(),
            wide: Gossip::new(
                wide_nodes,
                wide_nodes,
                gossip_config,
                ClusterProfile::wan_metro(),
            ),
            wide_nodes,
            wide_down: Vec::new(),
        })
    }

    /// A store holding the TPC-H data, placed for the nodes `live`.
    fn deploy(data: &TpchWorkload, live: &[NodeId]) -> Result<(DistributedStorage, Epoch)> {
        let routing = RoutingTable::build_with_policy(live, SCHEME, POLICY);
        let mut storage = DistributedStorage::new(routing, StorageConfig::default());
        for relation in data.relations() {
            storage.register_relation(relation);
        }
        let epoch = storage.publish(&data.batch())?;
        Ok((storage, epoch))
    }

    fn recovery_counters(stats: &mut Stats, report: &QueryReport) {
        stats.add("engine.recovery_runs", 1.0);
        stats.add("engine.recovered_runs", report.recovered as u8 as f64);
        stats.add("engine.purged", report.purged as f64);
        stats.add("engine.retransmitted", report.retransmitted as f64);
        stats.add("engine.phases", report.phases as f64);
    }
}

impl Workload for ChurnFailover {
    fn run_op(&mut self, t: &mut Tracer, stats: &mut Stats, e: usize) -> OpResult {
        if e > 0 && e.is_multiple_of(ROUND) {
            // A new round: the data redeployed onto the current members,
            // the old store torn down.
            let live = self.gossip.live_nodes();
            t.untimed(|| -> Result<()> {
                (self.storage, self.epoch) = Self::deploy(&self.data, &live)?;
                Ok(())
            })?;
            for node in &self.departed {
                self.storage.mark_failed(*node);
            }
        }
        let gossip = &mut self.gossip;
        let bytes_before = gossip.total_bytes();

        // The epoch's membership events.
        for change in self.stream.epoch(e) {
            t.call("substrate.gossip_inject", || gossip.inject(*change))?;
            match change {
                MembershipChange::Joined(n) => {
                    self.departed.retain(|d| d != n);
                    self.storage.mark_recovered(*n);
                }
                MembershipChange::Left(n) | MembershipChange::Failed(n) => self.departed.push(*n),
            }
        }
        let mut departed = NodeSet::empty();
        for node in &self.departed {
            departed.insert(*node);
        }

        // One round: rumors have started to spread but not converged, so
        // the initiator plans against a genuinely stale view.
        t.call("substrate.gossip_round", || gossip.run_round());
        let snapshot = t.call("substrate.snapshot", || {
            gossip
                .view(INITIATOR)
                .expect("the initiator is protected from churn")
                .snapshot(SCHEME, POLICY)
        })?;
        let incremental = EngineConfig::default();
        let stale = t.call("engine.stale_snapshot", || {
            QueryExecutor::new(&self.storage, incremental.clone()).execute_with_stale_snapshot(
                &self.join.plan,
                self.epoch,
                INITIATOR,
                &snapshot,
                &departed,
            )
        })?;
        stats.query_report(&stale);
        Self::recovery_counters(stats, &stale);

        let bound = round_bound(UNIVERSE);
        let rounds = t.call("substrate.gossip_converge_small", || {
            gossip.run_until_converged(bound)
        })?;
        stats.add("substrate.gossip_converge_rounds", rounds as f64);

        // Adopt the converged truth: placement follows the live set, the
        // departed are unreachable, anti-entropy repairs replication.
        let live = gossip.live_nodes();
        let truth = t.call("substrate.routing_build", || {
            RoutingTable::build_with_policy(&live, SCHEME, POLICY)
        });
        let storage = &mut self.storage;
        t.call("storage.set_routing", || storage.set_routing(truth));
        for node in &self.departed {
            t.call("storage.mark_failed", || storage.mark_failed(*node));
        }
        let repair = t.call("storage.anti_entropy", || anti_entropy(storage))?;
        stats.add(
            "storage.anti_entropy_tuples_copied",
            repair.tuples_copied as f64,
        );
        stats.add(
            "substrate.gossip_bytes",
            (gossip.total_bytes() - bytes_before) as f64,
        );

        // A second query loses a live node halfway through its
        // failure-free running time; the strategies alternate.
        let strategy = if e.is_multiple_of(2) {
            RecoveryStrategy::Incremental
        } else {
            RecoveryStrategy::Restart
        };
        let config = EngineConfig {
            strategy,
            ..EngineConfig::default()
        };
        let storage = &self.storage;
        let executor = QueryExecutor::new(storage, config);
        let undisturbed =
            t.untimed(|| executor.execute(&self.aggregate.plan, self.epoch, INITIATOR))?;
        let victims: Vec<NodeId> = live.iter().copied().filter(|n| *n != INITIATOR).collect();
        let failure = FailureSpec::at_time(
            victims[(e * 7 + 3) % victims.len()],
            SimTime::from_micros((undisturbed.running_time.as_micros() / 2).max(1)),
        );
        let interrupted = t.call("engine.execute_with_failure", || {
            executor.execute_with_failure(&self.aggregate.plan, self.epoch, INITIATOR, failure)
        })?;
        stats.query_report(&interrupted);
        Self::recovery_counters(stats, &interrupted);

        // The wide cluster: last operation's losses rejoin, a fresh burst
        // fails, gossip converges.
        let wide = &mut self.wide;
        let wide_bytes_before = wide.total_bytes();
        let mut burst: Vec<MembershipChange> = self
            .wide_down
            .drain(..)
            .map(MembershipChange::Joined)
            .collect();
        for k in 0..WIDE_BURST {
            let node = NodeId((1 + (e * 131 + k * 197) % (self.wide_nodes - 1)) as u16);
            if !self.wide_down.contains(&node) && !burst.contains(&MembershipChange::Joined(node)) {
                self.wide_down.push(node);
                burst.push(MembershipChange::Failed(node));
            }
        }
        for change in burst {
            t.call("substrate.gossip_inject", || wide.inject(change))?;
        }
        let wide_bound = round_bound(self.wide_nodes);
        let wide_rounds = t.call("substrate.gossip_converge", || {
            wide.run_until_converged(wide_bound)
        })?;
        stats.add("substrate.gossip_converge_rounds", wide_rounds as f64);
        let wide_bytes = wide.total_bytes() - wide_bytes_before;
        stats.add("substrate.gossip_bytes", wide_bytes as f64);
        stats.sim_bytes(gossip.total_bytes() - bytes_before + wide_bytes);

        stats.verify(t, || {
            expect_rows("Q1, failure-free", &undisturbed.rows, &self.aggregate.reference)?;
            expect_rows("Q3 on a stale snapshot", &stale.rows, &self.join.reference)?;
            expect_rows(
                &format!("Q1 losing {} under {strategy:?}", failure.node),
                &interrupted.rows,
                &self.aggregate.reference,
            )?;
            if rounds > bound || wide_rounds > wide_bound {
                return Err(Failure(format!(
                    "gossip took {rounds} and {wide_rounds} rounds against bounds of {bound} and {wide_bound}"
                )));
            }
            Ok(())
        })
    }

    fn probes(&mut self, t: &mut Tracer, stats: &mut Stats) {
        probes::clone_store(t, &self.storage);
        probes::scan_sweep(t, stats, &self.storage, "lineitem", self.epoch);
    }
}
