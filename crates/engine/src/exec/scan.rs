//! Leaf scans over the versioned store.
//!
//! Each participant scans its partition of every leaf relation for the
//! current phase: distributed scans read the node's assigned hash ranges
//! (replica fetches that must leave the node are charged to the simulated
//! network), replicated scans read the node's full local copy, and
//! covering-index scans answer key-only queries from the index pages
//! alone, "bypassing the data storage nodes".  Scan durations come from
//! the node profile; page/tuple/remote-lookup counts accumulate into
//! `RunStats`.
//!
//! The store keeps a publication's tuple versions as columns
//! ([`orchestra_storage::TupleRun`]), so emitting what a scan read is a
//! mask and a gather, never a row loop: the predicate is evaluated over
//! the columns it reads, gathered for every row read, and then the
//! survivors are gathered a column at a time, one step per stretch of
//! rows from the same run ([`orchestra_storage::gather`]).

use super::pipeline::{Runtime, WC_SCAN};
use crate::expr::Predicate;
use crate::plan::{OpId, OperatorKind};
use crate::provenance::Phase;
use orchestra_common::{
    ColumnarBatch, Epoch, KeyRange, NodeId, NodeSet, OrchestraError, Result, Value,
};
use orchestra_simnet::{NodeProfile, SimTime};
use orchestra_storage::{gather, PartitionScan, StoredRow};
use std::time::Instant;

use super::exchange::Payload;

impl<'a> Runtime<'a> {
    /// Run one leaf scan on behalf of `node` for the current phase,
    /// returning a tagged columnar batch and the simulated scan duration.
    pub(super) fn do_scan(&mut self, node: NodeId, op: OpId) -> Result<(ColumnarBatch, SimTime)> {
        let kind = &self.plan.op(op).kind;
        let profile = &self.config.profile.node;
        // A maintenance session may pin this scan to a different epoch,
        // or replace it with a signed delta scan over an epoch interval.
        let epoch = self.overrides.epoch_of(op).unwrap_or(self.epoch);
        let delta = self.overrides.delta_of(op);
        let emit = Emit {
            node,
            phase: self.phase,
        };
        if delta.is_some() && !matches!(kind, OperatorKind::DistributedScan { .. }) {
            return Err(OrchestraError::Execution(format!(
                "operator {} has no delta scan path",
                kind.name()
            )));
        }
        let ranges = &self.nodes[node.index()].scan_ranges;
        match kind {
            OperatorKind::DistributedScan {
                relation,
                predicate,
            } => {
                if ranges.is_empty() {
                    return Ok((ColumnarBatch::new(0), SimTime::ZERO));
                }
                let wall;
                let (rows, fetch) = match delta {
                    Some((from, to)) => {
                        let scan = self
                            .view
                            .delta_partition_ref(relation, from, to, node, ranges)?;
                        // The scan predicate applies to both signs: a
                        // removed version only ever contributed if it
                        // passed, and an added version only contributes if
                        // it passes.
                        wall = Instant::now();
                        let rows = emit_rows(scan.tuples.iter().copied(), predicate, emit);
                        (rows, fetched(scan, profile))
                    }
                    None => {
                        let scan = self
                            .view
                            .scan_partition_ref(relation, epoch, node, ranges)?;
                        wall = Instant::now();
                        let rows = emit_rows(unsigned(&scan.tuples), predicate, emit);
                        (rows, fetched(scan, profile))
                    }
                };
                Ok(self.emitted(node, fetch, rows, wall))
            }
            OperatorKind::ReplicatedScan {
                relation,
                predicate,
            } => {
                if !self.scan_replicated {
                    return Ok((ColumnarBatch::new(0), SimTime::ZERO));
                }
                let tuples = self.view.scan_replicated(relation, epoch, node)?;
                let fetch = Fetch {
                    tuples_scanned: tuples.len(),
                    duration: profile.scan_time(tuples.len(), 1),
                    ..Fetch::default()
                };
                let wall = Instant::now();
                let rows = emit_rows(unsigned(&tuples), predicate, emit);
                Ok(self.emitted(node, fetch, rows, wall))
            }
            OperatorKind::CoveringIndexScan {
                relation,
                predicate,
            } => {
                if ranges.is_empty() {
                    return Ok((ColumnarBatch::new(0), SimTime::ZERO));
                }
                let (keys, pages) = self.covering_scan(relation, epoch, ranges)?;
                let fetch = Fetch {
                    pages_read: pages,
                    duration: profile.scan_time(keys.len(), pages),
                    ..Fetch::default()
                };
                let wall = Instant::now();
                let rows = emit_keys(&keys, self.plan.op(op).arity, predicate, emit);
                Ok(self.emitted(node, fetch, rows, wall))
            }
            other => Err(OrchestraError::Execution(format!(
                "operator {} is not a scan",
                other.name()
            ))),
        }
    }

    /// The tail every scan arm shares, called the moment emission ends:
    /// bill the emission's wall-clock time, count what the fetch read,
    /// and charge the tuples that had to come from a replica — they
    /// cross the wire, so their bytes and latency go to the simulation
    /// and the scan stretches until the last transfer lands.
    fn emitted(
        &mut self,
        node: NodeId,
        fetch: Fetch,
        rows: ColumnarBatch,
        wall: Instant,
    ) -> (ColumnarBatch, SimTime) {
        self.record_wall(WC_SCAN, rows.len(), wall);
        self.stats.pages_read += fetch.pages_read;
        self.stats.tuples_scanned += fetch.tuples_scanned;
        self.stats.remote_lookups += fetch.remote_lookups;
        let mut duration = fetch.duration;
        let now = self.sim.now();
        for (src, bytes) in fetch.remote_transfers {
            let sent = self.sim.send(src, node, bytes, now, Payload::StorageFetch);
            if let Some(arrival) = sent {
                duration = duration.max(arrival.saturating_sub(now));
            }
        }
        (rows, duration)
    }

    /// Answer a key-only scan from the index pages alone, "bypassing the
    /// data storage nodes": the keys the pages list in `ranges`, borrowed,
    /// and the number of pages read.
    fn covering_scan(
        &self,
        relation: &str,
        epoch: Epoch,
        ranges: &[KeyRange],
    ) -> Result<(Vec<&'a [Value]>, usize)> {
        let Some(version) = self.view.version_record(relation, epoch)? else {
            return Ok((Vec::new(), 0));
        };
        let mut out = Vec::new();
        let mut pages = 0;
        for descriptor in &version.pages {
            if !ranges.iter().any(|r| r.overlaps(&descriptor.range)) {
                continue;
            }
            let page = self.view.lookup_index_page(descriptor)?;
            pages += 1;
            for entry in &page.entries {
                if ranges.iter().any(|r| r.contains(entry.position)) {
                    out.push(&entry.id.key[..]);
                }
            }
        }
        Ok((out, pages))
    }
}

/// What a scan arm fetched from the store, for [`Runtime::emitted`] to
/// account: the counts the report carries, the simulated duration of the
/// local read, and the `(source, bytes)` of every replica fetch.
#[derive(Default)]
struct Fetch {
    pages_read: usize,
    tuples_scanned: usize,
    remote_lookups: usize,
    duration: SimTime,
    remote_transfers: Vec<(NodeId, usize)>,
}

/// What a distributed scan — full or delta — fetched.
fn fetched<T>(scan: PartitionScan<T>, profile: &NodeProfile) -> Fetch {
    Fetch {
        pages_read: scan.pages_read,
        tuples_scanned: scan.tuples_read,
        remote_lookups: scan.remote_lookups,
        duration: profile.scan_time(scan.tuples_read, scan.pages_read),
        remote_transfers: scan.remote_transfers,
    }
}

/// What scan emission needs to know besides the rows: whose provenance
/// tag and which phase the rows get.
#[derive(Clone, Copy)]
pub(super) struct Emit {
    pub(super) node: NodeId,
    pub(super) phase: Phase,
}

/// The rows of a full scan, each with the sign `+1`.
fn unsigned<'r, 's>(
    rows: &'s [StoredRow<'r>],
) -> impl Iterator<Item = (StoredRow<'r>, i8)> + Clone + 's {
    rows.iter().map(|row| (*row, 1))
}

/// Turn the rows a scan read — stored rows, each with its sign — into the
/// scan operator's output batch, tagged with the scanning node's
/// provenance.  The batch is as wide as the widest row read, measured
/// before the filter, so filtered and unfiltered scans agree on its
/// shape; a shorter row is padded with NULLs.  The predicate is evaluated
/// first, over a batch of just the columns it reads, gathered for every
/// row read; then only the survivors are gathered, a column at a time
/// (late materialization: a dropped row is never copied, interned or
/// accounted).  Only this emission work is on the wall clock, not the
/// storage fetch above it.
pub(super) fn emit_rows<'r>(
    rows: impl Iterator<Item = (StoredRow<'r>, i8)> + Clone,
    predicate: &Option<Predicate>,
    emit: Emit,
) -> ColumnarBatch {
    let arity = rows.clone().map(|(row, _)| row.arity()).max().unwrap_or(0);
    let every: Vec<usize> = (0..arity).collect();
    let provenance = NodeSet::singleton(emit.node);
    let Some(predicate) = predicate else {
        return gather(rows, &every, provenance, emit.phase);
    };
    let (read, narrowed) = predicate.narrowed();
    let probe = gather(rows.clone(), &read, provenance, emit.phase);
    let mut mask = Vec::new();
    narrowed.eval_mask(&probe, &mut mask);
    let survivors = rows.zip(mask).filter_map(|(row, keep)| keep.then_some(row));
    gather(survivors, &every, provenance, emit.phase)
}

/// [`emit_rows`] for a covering-index scan's keys: every key is a row of
/// a batch as wide as the scan's key, `arity`, and the predicate picks
/// the rows that go on.
fn emit_keys(
    keys: &[&[Value]],
    arity: usize,
    predicate: &Option<Predicate>,
    emit: Emit,
) -> ColumnarBatch {
    let provenance = NodeSet::singleton(emit.node);
    let mut all = ColumnarBatch::new(arity);
    for key in keys {
        all.push_row_padded(key, 1, provenance, emit.phase);
    }
    let Some(predicate) = predicate else {
        return all;
    };
    let mut mask = Vec::new();
    predicate.eval_mask(&all, &mut mask);
    if mask.iter().all(|keep| *keep) {
        return all;
    }
    let survivors: Vec<u32> = (0..)
        .zip(&mask)
        .filter(|(_, keep)| **keep)
        .map(|(r, _)| r)
        .collect();
    // Appending a row is pushing its cells: the survivors' batch is the
    // one pushing them alone would build.
    let mut out = ColumnarBatch::new(arity);
    out.append_rows(&all, &survivors);
    out
}
