//! Provenance tags and execution phases.
//!
//! Section V-D: "We tag each tuple in the system with the set of nodes
//! that have processed it (or any tuple used to create it), and maintain
//! these sets of nodes as the tuples propagate their way through the
//! operator graph."  In addition, "each tuple gets tagged with a phase"
//! so the system can tell old in-flight data from a failed node apart from
//! freshly recomputed results.
//!
//! The tags are not a row type: every [`orchestra_common::ColumnarBatch`]
//! carries them as three columns parallel to the data — provenance node
//! set, phase, and the *sign* that makes a row a delta (`+1` for an
//! assertion, the only sign ordinary queries ever produce, `-1` for a
//! retraction flowing through a maintenance pipeline, `exec::ivm`).  The
//! operators maintain them:
//!
//! * a scan tags every row with the scanning node alone, the current
//!   phase and the row's delta sign;
//! * select, project and compute-function carry the tags through
//!   unchanged;
//! * a join row carries the union of its parents' provenance plus the
//!   joining node, the larger of their phases and the product of their
//!   signs (a retraction joined with an assertion retracts the derived
//!   row);
//! * an aggregate folds signed rows into sub-groups keyed by (group,
//!   provenance, phase) and emits each as an assertion tagged with the
//!   sub-group's provenance plus the emitting node.
//!
//! A row is *tainted* by a failure when its provenance intersects the
//! failed set.  On the wire the provenance and phase cost
//! [`TAG_WIRE_BYTES`] per row when recovery support is on; the sign rides
//! inside the per-row framing the batch encoding already charges for.

/// An execution phase: 0 for the initial run, incremented by each
/// recovery invocation.
pub type Phase = u32;

/// Number of wire bytes used by a provenance tag (a 256-bit node set plus
/// a 4-byte phase).  This is the per-tuple overhead the paper measures at
/// "at most 2%" extra network traffic.
pub const TAG_WIRE_BYTES: usize = 32 + 4;

#[cfg(test)]
mod tests {
    //! The tagging rules of the module docs, checked on the operators
    //! that implement them.

    use crate::expr::AggFunc;
    use crate::ops::{AggState, JoinState};
    use orchestra_common::{ColumnarBatch, NodeId, NodeSet, Value};

    /// A one-row, one-column batch as a scan at `node` would emit it.
    fn scanned(v: i64, node: u16, phase: u32, sign: i8) -> ColumnarBatch {
        let mut b = ColumnarBatch::new(1);
        b.push_row(
            &[Value::Int(v)],
            sign,
            NodeSet::singleton(NodeId(node)),
            phase,
        );
        b
    }

    /// Join `left` with `right` on column 0 at node 2.
    fn joined(left: &ColumnarBatch, right: &ColumnarBatch) -> ColumnarBatch {
        let mut join = JoinState::new();
        assert!(join
            .process_batch(0, left, &[0], &[0], NodeId(2))
            .is_empty());
        join.process_batch(1, right, &[0], &[0], NodeId(2))
    }

    #[test]
    fn scan_and_processing_build_provenance() {
        let mut agg = AggState::new();
        let aggs = [(AggFunc::Count, 0)];
        agg.update_raw_batch(&scanned(1, 3, 0, 1), &[0], &aggs)
            .unwrap();
        let out = agg.emit_unemitted(true, NodeId(5), 0);
        assert_eq!(out.len(), 1);
        assert!(out.provenance_at(0).contains(NodeId(3)));
        assert!(out.provenance_at(0).contains(NodeId(5)));
        assert_eq!(out.provenance_at(0).len(), 2);
        assert_eq!(out.phase_at(0), 0);
    }

    #[test]
    fn projection_keeps_tags() {
        let x = scanned(1, 2, 3, -1);
        let y = x.project(&[0, 0]);
        assert_eq!(y.tuple_at(0).values(), &[Value::Int(1), Value::Int(1)]);
        assert_eq!(y.provenance_at(0), x.provenance_at(0));
        assert_eq!((y.phase_at(0), y.sign_at(0)), (3, -1));
    }

    #[test]
    fn derived_tuples_union_provenance_and_max_phase() {
        let j = joined(&scanned(1, 0, 0, 1), &scanned(1, 1, 1, 1));
        assert_eq!(j.len(), 1);
        let expected: NodeSet = [NodeId(0), NodeId(1), NodeId(2)].into_iter().collect();
        assert_eq!(j.provenance_at(0), expected);
        assert_eq!(j.phase_at(0), 1);
        assert_eq!(j.tuple_at(0).values(), &[Value::Int(1), Value::Int(1)]);
    }

    #[test]
    fn signs_default_positive_and_multiply_through_derivation() {
        let assertion = scanned(1, 0, 0, 1);
        let retraction = scanned(1, 1, 0, -1);
        assert_eq!(joined(&assertion, &assertion).sign_at(0), 1);
        assert_eq!(
            joined(&assertion, &retraction).sign_at(0),
            -1,
            "assertion × retraction retracts"
        );
        assert_eq!(
            joined(&retraction, &retraction).sign_at(0),
            1,
            "two retractions assert"
        );
    }
}
