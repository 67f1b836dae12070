//! Deterministic multi-epoch update streams.
//!
//! The CDSS lifecycle the paper opens with is *publication*: participants
//! accumulate updates locally and occasionally publish them, after which
//! queries must see the new epoch.  [`epoch_stream`] generates that
//! lifecycle for any catalogue [`Workload`]: a sequence of
//! [`orchestra_storage::UpdateBatch`]es (one per epoch, sized by an
//! [`EpochSpec`] of inserts/modifies/deletes per relation) together with
//! the evolved [`TableSet`] and the workload's exact reference answer
//! *at every epoch* — the oracle maintained views and recovery tests are
//! cross-checked against.  A reference is the workload's query
//! interpreted by [`crate::oracle::evaluate`] over that epoch's tables,
//! computed when it is first read: a caller that only publishes pays for
//! none.
//!
//! Generation is domain-preserving without knowing any schema's value
//! domains: a fresh insert clones a randomly chosen existing row under a
//! fresh key, and a modify replaces a victim row's payload with a random
//! donor row's payload under the victim's key.  Foreign keys, segment
//! strings and date ranges therefore stay inside the distributions the
//! base generators produced, so joins and predicates keep selecting
//! non-trivial subsets as the relations evolve.  The same
//! `(workload, seed, specs)` always yields the same stream.

use crate::{oracle, tables_of, TableSet, Workload};
use orchestra_common::{rng, ColumnType, OrchestraError, Relation, Result, Tuple, Value};
use orchestra_optimizer::LogicalQuery;
use orchestra_storage::UpdateBatch;
use std::cell::OnceCell;

/// How much churn one epoch applies to *each* relation of the workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EpochSpec {
    /// Brand-new rows (fresh keys) per relation.
    pub inserts: usize,
    /// Existing rows whose payload is replaced, per relation.
    pub modifies: usize,
    /// Existing rows removed, per relation.
    pub deletes: usize,
}

impl EpochSpec {
    /// An epoch applying `inserts`/`modifies`/`deletes` to each relation.
    pub fn new(inserts: usize, modifies: usize, deletes: usize) -> EpochSpec {
        EpochSpec {
            inserts,
            modifies,
            deletes,
        }
    }

    /// Signed delta rows this spec expands to per relation (an insert or
    /// delete is one signed row, a modify is a `-old`/`+new` pair).
    pub fn signed_rows(&self) -> usize {
        self.inserts + self.deletes + 2 * self.modifies
    }
}

/// A generated multi-epoch stream: the publishable batches plus, for
/// every epoch, the evolved table contents and the workload's exact
/// reference answer, computed on first read.  Index 0 is the state
/// *after* the first generated batch (the workload's base batch is epoch
/// −1 relative to the stream).
#[derive(Clone, Debug)]
pub struct EpochStream {
    query: LogicalQuery,
    batches: Vec<UpdateBatch>,
    tables: Vec<TableSet>,
    references: Vec<OnceCell<Vec<Tuple>>>,
}

impl EpochStream {
    /// Number of generated epochs.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Is the stream empty?
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// The batch to publish as the stream's `i`-th epoch.
    pub fn batch(&self, i: usize) -> &UpdateBatch {
        &self.batches[i]
    }

    /// The full table contents after the `i`-th batch.
    pub fn tables(&self, i: usize) -> &TableSet {
        &self.tables[i]
    }

    /// The workload's exact answer after the `i`-th batch, interpreted
    /// the first time it is read.
    pub fn reference(&self, i: usize) -> &[Tuple] {
        self.references[i].get_or_init(|| {
            oracle::evaluate(&self.query, &self.tables[i])
                .unwrap_or_else(|e| panic!("the reference at epoch {i}: {e}"))
        })
    }
}

/// A row of type defaults shaped like `relation`'s schema.
fn schema_row(relation: &Relation) -> Vec<Value> {
    let schema = relation.schema();
    (0..schema.arity())
        .map(|c| match schema.column_type(c) {
            ColumnType::Int => Value::Int(0),
            ColumnType::Double => Value::Double(0.0),
            ColumnType::Str => Value::str(""),
        })
        .collect()
}

/// Generate a deterministic epoch stream for `workload`: one batch per
/// entry of `specs`, each applying that spec's churn to every relation.
///
/// Requires single-column integer keys (true of every catalogue
/// relation) so fresh keys can be synthesized past the current maximum.
/// A query that reads a relation, slot, column or select position the
/// workload lacks is an `Execution` error here, so that
/// [`EpochStream::reference`] cannot fail later or answer from a
/// relation that is not there.
pub fn epoch_stream(
    workload: &dyn Workload,
    seed: u64,
    specs: &[EpochSpec],
) -> Result<EpochStream> {
    let relations = workload.relations();
    for relation in &relations {
        let schema = relation.schema();
        if schema.key_len() != 1 || schema.column_type(0) != ColumnType::Int {
            return Err(OrchestraError::Execution(format!(
                "epoch streams need single-column integer keys; {} has key length {}",
                relation.name(),
                schema.key_len()
            )));
        }
    }

    // One schema-shaped row per relation reaches every column the query
    // reads, whatever its predicates select.
    let query = workload.logical();
    let probe: TableSet = relations
        .iter()
        .map(|r| (r.name().to_string(), vec![Tuple::new(schema_row(r))]))
        .collect();
    if let Some(name) = query.relations.iter().find(|&n| !probe.contains_key(n)) {
        let lacks = format!("the query reads {name}, which {} lacks", workload.name());
        return Err(OrchestraError::Execution(lacks));
    }
    oracle::evaluate(&query, &probe)?;

    let mut tables = tables_of(&workload.batch());
    let mut stream = EpochStream {
        query,
        batches: Vec::with_capacity(specs.len()),
        tables: Vec::with_capacity(specs.len()),
        references: vec![OnceCell::new(); specs.len()],
    };
    for (epoch_idx, spec) in specs.iter().enumerate() {
        let mut batch = UpdateBatch::new();
        for relation in &relations {
            let name = relation.name();
            let rows = tables.entry(name.to_string()).or_default();
            let mut r = rng::seeded_stream(seed, &format!("epoch-{epoch_idx}-{name}"));

            // Fresh inserts: a random donor row's payload under a key
            // past the current maximum, so no key is ever inserted twice.
            let first_key = rows
                .iter()
                .map(|t| t.value(0).as_int().unwrap_or(0))
                .max()
                .unwrap_or(0)
                + 1;
            for next_key in first_key..first_key + spec.inserts as i64 {
                let mut values = if rows.is_empty() {
                    // A drained relation has no donor.
                    schema_row(relation)
                } else {
                    rows[r.random_range(0..rows.len())].values().to_vec()
                };
                values[0] = Value::Int(next_key);
                let row = Tuple::new(values);
                batch.insert(name, row.clone());
                rows.push(row);
            }

            // Modifies and deletes draw *disjoint* victims from the
            // pre-insert population: publishing two updates for one key
            // in one batch is not a meaningful participant log.
            let population = rows.len() - spec.inserts;
            let mut victims: Vec<usize> = (0..population).collect();
            // Partial Fisher–Yates: shuffle as many victims as needed.
            let needed = (spec.modifies + spec.deletes).min(population);
            for i in 0..needed {
                let j = i + r.random_range(0..(victims.len() - i)) as usize;
                victims.swap(i, j);
            }
            let modifies = spec.modifies.min(needed);
            for &victim in victims.iter().take(modifies) {
                let donor = r.random_range(0..population);
                let mut values = rows[donor].values().to_vec();
                values[0] = rows[victim].value(0).clone();
                let row = Tuple::new(values);
                batch.modify(name, row.clone());
                rows[victim] = row;
            }
            let mut doomed: Vec<usize> = victims
                .iter()
                .copied()
                .skip(modifies)
                .take(needed - modifies)
                .collect();
            // Remove highest index first so earlier indices stay valid.
            doomed.sort_unstable_by(|a, b| b.cmp(a));
            for victim in doomed {
                let row = rows.remove(victim);
                batch.delete(name, row.values()[..1].to_vec());
            }
        }
        stream.tables.push(tables.clone());
        stream.batches.push(batch);
    }
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{deploy, TpchQuery, TpchWorkload};
    use orchestra_common::NodeId;
    use orchestra_engine::{EngineConfig, QueryExecutor};

    #[test]
    fn streams_are_deterministic_and_sized_by_their_specs() {
        let w = TpchWorkload::scaled(TpchQuery::Q1, 7, 120);
        let specs = [EpochSpec::new(5, 3, 2), EpochSpec::new(0, 10, 0)];
        let a = epoch_stream(&w, 9, &specs).unwrap();
        let b = epoch_stream(&w, 9, &specs).unwrap();
        assert_eq!(a.len(), 2);
        assert!(!a.is_empty());
        for i in 0..2 {
            assert_eq!(a.batch(i), b.batch(i), "epoch {i}");
            assert_eq!(a.reference(i), b.reference(i), "epoch {i}");
        }
        // Each relation gets the spec's churn: 3 relations × (5+3+2).
        assert_eq!(a.batch(0).len(), 3 * 10);
        assert_eq!(a.batch(1).len(), 3 * 10);
        // Cardinalities evolve: +5 −2 per relation in epoch 0.
        assert_eq!(a.tables(0)["lineitem"].len(), 120 + 5 - 2);
        // A different seed yields a different stream.
        let c = epoch_stream(&w, 10, &specs).unwrap();
        assert_ne!(a.batch(0), c.batch(0));
    }

    #[test]
    fn per_epoch_references_match_the_published_store() {
        // Publish the stream into a real cluster and check that a fresh
        // distributed run at every epoch equals the stream's reference.
        let w = TpchWorkload::scaled(TpchQuery::Q3, 11, 160);
        let (mut storage, base_epoch) = deploy(&w, 5).unwrap();
        let stream = epoch_stream(&w, 3, &[EpochSpec::new(6, 4, 3); 3]).unwrap();
        let exec_config = EngineConfig::default();
        for i in 0..stream.len() {
            let epoch = storage.publish(stream.batch(i)).unwrap();
            assert_eq!(epoch.0, base_epoch.0 + 1 + i as u64);
            let plan = crate::compiled_plan(&w, &storage, epoch).unwrap();
            let report = QueryExecutor::new(&storage, exec_config.clone())
                .execute(&plan, epoch, NodeId(0))
                .unwrap();
            assert_eq!(
                report.rows,
                stream.reference(i),
                "distributed answer diverged from the stream reference at epoch {i}"
            );
        }
    }

    #[test]
    fn draining_a_relation_and_refilling_it_keeps_the_schema_shape() {
        // Delete every source row, then insert into the empty relation:
        // synthesized rows must match the schema's arity, and the
        // stream must stay publishable and exact.
        let w = crate::CopyScenario { seed: 2, rows: 6 };
        let stream =
            epoch_stream(&w, 4, &[EpochSpec::new(0, 0, 6), EpochSpec::new(3, 0, 0)]).unwrap();
        assert!(stream.tables(0)["st_source"].is_empty());
        assert_eq!(stream.reference(0), Vec::<Tuple>::new());
        let refilled = &stream.tables(1)["st_source"];
        assert_eq!(refilled.len(), 3);
        assert!(refilled.iter().all(|t| t.arity() == 2));
        let (mut storage, _) = crate::deploy(&w, 3).unwrap();
        for i in 0..stream.len() {
            storage.publish(stream.batch(i)).unwrap();
        }
        assert_eq!(stream.reference(1).len(), 3);
    }

    #[test]
    fn references_are_computed_when_first_read() {
        let w = TpchWorkload::scaled(TpchQuery::Q1, 7, 120);
        let stream = epoch_stream(&w, 9, &[EpochSpec::new(5, 3, 2); 3]).unwrap();
        assert!(stream.references.iter().all(|r| r.get().is_none()));
        let first = stream.reference(1).to_vec();
        assert_eq!(
            first,
            oracle::evaluate(&w.logical(), stream.tables(1)).unwrap()
        );
        assert!(stream.references[0].get().is_none());
        assert!(std::ptr::eq(stream.reference(1), stream.reference(1)));
    }

    /// `Copy` with its query replaced.
    struct Misquoted(LogicalQuery);

    impl Workload for Misquoted {
        fn name(&self) -> String {
            "misquoted".into()
        }
        fn relations(&self) -> Vec<Relation> {
            crate::CopyScenario { seed: 1, rows: 3 }.relations()
        }
        fn batch(&self) -> UpdateBatch {
            crate::CopyScenario { seed: 1, rows: 3 }.batch()
        }
        fn logical(&self) -> LogicalQuery {
            self.0.clone()
        }
    }

    #[test]
    fn a_malformed_query_fails_the_stream_not_a_reference() {
        use orchestra_engine::{CmpOp, Predicate};
        use orchestra_optimizer::LogicalExpr;
        let spec = [EpochSpec::new(1, 0, 0)];
        // Column 2 of st_source(id, field), behind a filter no row passes.
        let mut hidden = LogicalQuery::new();
        let src = hidden.relation("st_source");
        hidden
            .filter(src, Predicate::cmp(0, CmpOp::Lt, -1i64))
            .select(vec![LogicalExpr::col(src, 2)]);
        let mut elsewhere = LogicalQuery::new();
        let other = elsewhere.relation("lineitem");
        elsewhere.select(vec![LogicalExpr::col(other, 0)]);
        for query in [hidden, elsewhere] {
            let err = epoch_stream(&Misquoted(query), 1, &spec).unwrap_err();
            assert_eq!(err.category(), "execution", "{err}");
        }
    }

    #[test]
    fn modifies_keep_keys_and_deletes_shrink() {
        let w = TpchWorkload::scaled(TpchQuery::Q6, 5, 80);
        let stream = epoch_stream(&w, 1, &[EpochSpec::new(0, 8, 8)]).unwrap();
        let batch = stream.batch(0);
        let updates = batch.updates_for("lineitem");
        assert_eq!(updates.len(), 16);
        // All touched keys are distinct within the batch.
        let mut keys: Vec<i64> = updates
            .iter()
            .map(|u| u.key(1)[0].as_int().unwrap())
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 16, "modifies and deletes must be disjoint");
        assert_eq!(stream.tables(0)["lineitem"].len(), 72);
        assert_eq!(EpochSpec::new(0, 8, 8).signed_rows(), 24);
    }
}
