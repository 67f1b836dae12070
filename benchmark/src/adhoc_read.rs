//! `adhoc_read`: the read path at scale.  Storage scans and the engine's
//! operators and exchange do nearly all the work, the optimizer almost
//! none, the write path none.

use crate::harness::Tracer;
use crate::probes;
use crate::workload::{expect_rows, OpResult, Plan, Scale, Stats, Workload};
use orchestra_common::{Epoch, NodeId, Result, Tuple};
use orchestra_engine::{EngineConfig, QueryExecutor};
use orchestra_optimizer::{compile, LogicalQuery, Statistics};
use orchestra_storage::DistributedStorage;
use orchestra_workloads::{
    deploy_all, CopyScenario, TpchQuery, TpchWorkload, Workload as Catalogue,
};

const NODES: u16 = 8;
const LINEITEM_ROWS: usize = 60_000;
const COPY_ROWS: usize = 12_000;

pub const PLAN: Plan = Plan {
    warm_up: 1,
    round: 1,
    ops_per_second: 2.75,
};

struct Query {
    span: &'static str,
    logical: LogicalQuery,
    reference: Vec<Tuple>,
}

pub struct AdhocRead {
    storage: DistributedStorage,
    epoch: Epoch,
    /// The fixed rotation: scan+aggregate, 3-way join, selective filter,
    /// ship-everything.
    queries: Vec<Query>,
}

impl AdhocRead {
    pub fn set_up(seed: u64, scale: Scale) -> Result<AdhocRead> {
        let lineitems = scale.rows(LINEITEM_ROWS, 400);
        let q1 = TpchWorkload::scaled(TpchQuery::Q1, seed, lineitems);
        let q3 = TpchWorkload::scaled(TpchQuery::Q3, seed, lineitems);
        let q6 = TpchWorkload::scaled(TpchQuery::Q6, seed, lineitems);
        let copy = CopyScenario {
            seed,
            rows: scale.rows(COPY_ROWS, 80),
        };
        let catalogue: [(&'static str, &dyn Catalogue); 4] = [
            ("engine.execute_q1", &q1),
            ("engine.execute_q3", &q3),
            ("engine.execute_q6", &q6),
            ("engine.execute_copy", &copy),
        ];
        let workloads: Vec<&dyn Catalogue> = catalogue.iter().map(|(_, w)| *w).collect();
        let (storage, epoch) = deploy_all(&workloads, NODES)?;
        let queries = catalogue
            .iter()
            .map(|(span, w)| Query {
                span,
                logical: w.logical(),
                reference: w.reference(),
            })
            .collect();
        Ok(AdhocRead {
            storage,
            epoch,
            queries,
        })
    }
}

impl Workload for AdhocRead {
    /// One pass over the rotation from one initiator: compile and
    /// execute each of the four queries.  The four differ fivefold in
    /// cost, so the pass, not the single query, is the operation whose
    /// median means something.
    fn run_op(&mut self, t: &mut Tracer, stats: &mut Stats, i: usize) -> OpResult {
        let initiator = NodeId((i % NODES as usize) as u16);
        let (storage, epoch) = (&self.storage, self.epoch);
        let executor = QueryExecutor::new(storage, EngineConfig::default());
        let mut reports = Vec::with_capacity(self.queries.len());
        for query in &self.queries {
            let statistics = t.call("optimizer.stats_collect", || {
                Statistics::collect(storage, epoch)
            });
            let plan = t.call("optimizer.compile", || compile(&query.logical, &statistics))?;
            let report = t.call(query.span, || executor.execute(&plan, epoch, initiator))?;
            stats.query_report(&report);
            reports.push(report);
        }
        let outcome = stats.verify(t, || {
            self.queries
                .iter()
                .zip(&reports)
                .try_for_each(|(query, report)| {
                    expect_rows(query.span, &report.rows, &query.reference)
                })
        });
        t.untimed(|| drop(reports));
        outcome
    }

    fn probes(&mut self, t: &mut Tracer, stats: &mut Stats) {
        probes::scan_sweep(t, stats, &self.storage, "lineitem", self.epoch);
        probes::retrieve(t, &self.storage, "lineitem", self.epoch);
        for query in &self.queries {
            probes::fingerprint(t, &query.logical);
        }
        probes::simnet_events(t, stats);
        probes::key_hash(t, stats);
    }
}
