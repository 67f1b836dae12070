//! STBenchmark mapping scenarios (paper Section VI-B).
//!
//! The paper drives the engine with schema-mapping scenarios from
//! STBenchmark over synthetic source relations whose payload fields are
//! 25-character alphanumeric strings.  Two scenarios are reproduced:
//!
//! * [`CopyScenario`] — materialise the target as an exact copy of the
//!   source (a pure scan-and-ship plan: the paper's baseline for
//!   scale-out and recovery sweeps);
//! * [`ConcatenateScenario`] — the target glues three source attributes
//!   into one, exercising the `Compute-function` operator's string
//!   concatenation.

use crate::{generated_relation, generated_relation_wide, Workload};
use orchestra_common::{ColumnType, Relation, Schema};
use orchestra_optimizer::{LogicalExpr, LogicalQuery};
use orchestra_storage::UpdateBatch;

/// Separator the `Concatenate` mapping inserts between glued fields.
const CONCAT_SEPARATOR: &str = " ";

/// STBenchmark `Copy`: the target is an exact copy of the source
/// relation `st_source(id, field)`.
#[derive(Clone, Copy, Debug)]
pub struct CopyScenario {
    /// Seed of the deterministic data generator.
    pub seed: u64,
    /// Number of source rows.
    pub rows: usize,
}

impl Workload for CopyScenario {
    fn name(&self) -> String {
        "stbenchmark-copy".into()
    }

    fn relations(&self) -> Vec<Relation> {
        vec![Relation::partitioned(
            "st_source",
            Schema::keyed_on_first(vec![("id", ColumnType::Int), ("field", ColumnType::Str)]),
        )]
    }

    fn batch(&self) -> UpdateBatch {
        let rows = generated_relation(self.seed, "st_source", self.rows);
        let mut batch = UpdateBatch::new();
        batch.insert_all("st_source", rows);
        batch
    }

    fn logical(&self) -> LogicalQuery {
        let mut q = LogicalQuery::new();
        let src = q.relation("st_source");
        q.select(vec![LogicalExpr::col(src, 0), LogicalExpr::col(src, 1)]);
        q
    }
}

/// STBenchmark `Concatenate`: the target attribute is the concatenation
/// of three source attributes of `st_parts(id, first, middle, last)`.
#[derive(Clone, Copy, Debug)]
pub struct ConcatenateScenario {
    /// Seed of the deterministic data generator.
    pub seed: u64,
    /// Number of source rows.
    pub rows: usize,
}

impl Workload for ConcatenateScenario {
    fn name(&self) -> String {
        "stbenchmark-concatenate".into()
    }

    fn relations(&self) -> Vec<Relation> {
        vec![Relation::partitioned(
            "st_parts",
            Schema::keyed_on_first(vec![
                ("id", ColumnType::Int),
                ("first", ColumnType::Str),
                ("middle", ColumnType::Str),
                ("last", ColumnType::Str),
            ]),
        )]
    }

    fn batch(&self) -> UpdateBatch {
        let rows = generated_relation_wide(self.seed, "st_parts", self.rows, 3);
        let mut batch = UpdateBatch::new();
        batch.insert_all("st_parts", rows);
        batch
    }

    fn logical(&self) -> LogicalQuery {
        let mut q = LogicalQuery::new();
        let parts = q.relation("st_parts");
        q.select(vec![
            LogicalExpr::col(parts, 0),
            LogicalExpr::Concat(vec![
                LogicalExpr::col(parts, 1),
                LogicalExpr::lit(CONCAT_SEPARATOR),
                LogicalExpr::col(parts, 2),
                LogicalExpr::lit(CONCAT_SEPARATOR),
                LogicalExpr::col(parts, 3),
            ]),
        ]);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy;
    use orchestra_common::{Epoch, NodeId, Tuple};
    use orchestra_engine::{EngineConfig, QueryExecutor};

    fn run(workload: &dyn Workload, nodes: u16) -> Vec<Tuple> {
        let (storage, epoch) = deploy(workload, nodes).unwrap();
        assert_eq!(epoch, Epoch(0));
        let plan = crate::compiled_plan(workload, &storage, epoch).unwrap();
        QueryExecutor::new(&storage, EngineConfig::default())
            .execute(&plan, epoch, NodeId(0))
            .unwrap()
            .rows
    }

    /// Both scenarios' logical queries compile to plans that reproduce
    /// the reference answer on five nodes.
    #[test]
    fn compiled_scenarios_match_their_references() {
        let copy = CopyScenario { seed: 11, rows: 60 };
        let concat = ConcatenateScenario { seed: 13, rows: 40 };
        let workloads: [&dyn Workload; 2] = [&copy, &concat];
        for w in workloads {
            let (storage, epoch) = deploy(w, 5).unwrap();
            let plan = crate::compiled_plan(w, &storage, epoch).unwrap();
            let rows = QueryExecutor::new(&storage, EngineConfig::default())
                .execute(&plan, epoch, NodeId(0))
                .unwrap()
                .rows;
            assert_eq!(rows, w.reference(), "{}", w.name());
        }
    }

    #[test]
    fn copy_scenario_reproduces_the_source() {
        let w = CopyScenario {
            seed: 11,
            rows: 120,
        };
        let rows = run(&w, 6);
        assert_eq!(rows.len(), 120);
        assert_eq!(rows, w.reference());
    }

    #[test]
    fn concatenate_scenario_glues_three_fields() {
        let w = ConcatenateScenario { seed: 13, rows: 80 };
        let rows = run(&w, 5);
        assert_eq!(rows.len(), 80);
        assert_eq!(rows, w.reference());
        let field = rows[0].value(1).as_str().unwrap();
        assert_eq!(field.len(), 25 * 3 + 2 * CONCAT_SEPARATOR.len());
        assert_eq!(field.split(CONCAT_SEPARATOR).count(), 3);
    }
}
