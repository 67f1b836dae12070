//! Canonical logical-query fingerprints.
//!
//! [`fingerprint`] names a [`LogicalQuery`] by the SHA-1 digest of its
//! *canonical form*, so that trivially equivalent spellings of the same
//! query collide on one [`QueryFingerprint`] — the identity half of the
//! serving layer's `(fingerprint, epoch)` result-cache key.  Two queries
//! that differ only in
//!
//! * the order relation slots were added (slots are renumbered by
//!   relation name, same-name slots keeping their relative order so
//!   self-joins stay distinguishable),
//! * the orientation of equi-join edges (`a = b` vs `b = a`) or the
//!   order of the join list,
//! * the order of conjunctive predicates, nesting of `And`s, the order
//!   of `Or` branches, interspersed `True` conjuncts, or the orientation
//!   of symmetric column comparisons (`c1 = c2` vs `c2 = c1`),
//!
//! fingerprint identically.  Queries that differ semantically — another
//! constant, column, aggregate or select expression — fingerprint
//! differently (up to SHA-1 collisions).  Canonicalization is purely
//! syntactic: it never consults statistics, so the fingerprint is stable
//! across epochs — exactly what lets immutable published epochs carry
//! the whole invalidation story.

use crate::logical::{JoinEdge, LogicalQuery};
use orchestra_common::QueryFingerprint;
use orchestra_engine::{CmpOp, Predicate};
use std::fmt::Write as _;

/// The fingerprint of `query`'s canonical form.
pub fn fingerprint(query: &LogicalQuery) -> QueryFingerprint {
    let canonical = canonicalize(query);
    // The canonical struct's debug rendering is a deterministic byte
    // encoding: field order is fixed by the type and every constituent
    // (names, ints, Values) renders reproducibly.
    let mut encoding = String::new();
    // Writing to a `String` cannot fail.
    let _ = write!(encoding, "{canonical:?}");
    QueryFingerprint::of_bytes(encoding.as_bytes())
}

/// Rewrite `query` into its canonical form: slots renumbered by name,
/// predicates flattened/normalized/sorted, join edges oriented and
/// sorted.  Exposed for tests; [`fingerprint`] is the consumer.
pub fn canonicalize(query: &LogicalQuery) -> LogicalQuery {
    // Renumber relation slots: sort by (name, original index).  The
    // original index tie-break keeps same-name slots (self-joins) in
    // their relative order, so the mapping is deterministic.
    let mut by_name: Vec<usize> = (0..query.relations.len()).collect();
    by_name.sort_by(|&a, &b| query.relations[a].cmp(&query.relations[b]).then(a.cmp(&b)));
    // old slot -> new slot
    let mut remap = vec![0usize; query.relations.len()];
    for (new, &old) in by_name.iter().enumerate() {
        remap[old] = new;
    }

    let mut out = LogicalQuery::new();
    for &old in &by_name {
        out.relations.push(query.relations[old].clone());
    }

    // Per-relation conjuncts: flatten Ands, drop Trues, normalize each
    // conjunct, then sort by (new slot, canonical encoding).
    let mut predicates: Vec<(usize, Predicate)> = Vec::new();
    for (slot, pred) in &query.predicates {
        let mut conjuncts = Vec::new();
        flatten_conjuncts(pred, &mut conjuncts);
        for c in conjuncts {
            predicates.push((remap[*slot], c));
        }
    }
    predicates.sort_by(|(sa, pa), (sb, pb)| {
        sa.cmp(sb)
            .then_with(|| format!("{pa:?}").cmp(&format!("{pb:?}")))
    });
    out.predicates = predicates;

    // Join edges: remap slots, orient each edge so the smaller ColRef is
    // on the left (equi-joins are symmetric), sort, dedupe.
    let mut joins: Vec<JoinEdge> = query
        .joins
        .iter()
        .map(|e| {
            let l = crate::logical::col(remap[e.left.relation], e.left.column);
            let r = crate::logical::col(remap[e.right.relation], e.right.column);
            if l <= r {
                JoinEdge { left: l, right: r }
            } else {
                JoinEdge { left: r, right: l }
            }
        })
        .collect();
    joins.sort_by_key(|e| (e.left, e.right));
    joins.dedup();
    out.joins = joins;

    // The select list and aggregation are positional (output shape):
    // order is semantic, so only slot references are remapped.
    out.select = query.select.iter().map(|e| remap_expr(e, &remap)).collect();
    out.aggregation = query.aggregation.clone();
    out
}

fn remap_expr(expr: &crate::logical::LogicalExpr, remap: &[usize]) -> crate::logical::LogicalExpr {
    use crate::logical::LogicalExpr as E;
    match expr {
        E::Column(c) => E::Column(crate::logical::col(remap[c.relation], c.column)),
        E::Literal(v) => E::Literal(v.clone()),
        E::Add(a, b) => E::Add(
            Box::new(remap_expr(a, remap)),
            Box::new(remap_expr(b, remap)),
        ),
        E::Sub(a, b) => E::Sub(
            Box::new(remap_expr(a, remap)),
            Box::new(remap_expr(b, remap)),
        ),
        E::Mul(a, b) => E::Mul(
            Box::new(remap_expr(a, remap)),
            Box::new(remap_expr(b, remap)),
        ),
        E::Concat(parts) => E::Concat(parts.iter().map(|p| remap_expr(p, remap)).collect()),
    }
}

/// Flatten nested `And`s into a conjunct list, dropping `True` and
/// normalizing each leaf.
fn flatten_conjuncts(pred: &Predicate, out: &mut Vec<Predicate>) {
    match pred {
        Predicate::True => {}
        Predicate::And(ps) => {
            for p in ps {
                flatten_conjuncts(p, out);
            }
        }
        other => out.push(normalize_predicate(other)),
    }
}

/// Normalize one predicate tree: orient symmetric column comparisons,
/// sort `Or` branches, and recurse — without flattening (only the
/// top-level conjunction is flattened, by [`flatten_conjuncts`]).
fn normalize_predicate(pred: &Predicate) -> Predicate {
    match pred {
        Predicate::CompareColumns { left, op, right } if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
            let (l, r) = if left <= right {
                (*left, *right)
            } else {
                (*right, *left)
            };
            Predicate::CompareColumns {
                left: l,
                op: *op,
                right: r,
            }
        }
        Predicate::And(ps) => {
            let mut inner = Vec::new();
            for p in ps {
                flatten_conjuncts(p, &mut inner);
            }
            inner.sort_by_key(|p| format!("{p:?}"));
            match inner.len() {
                0 => Predicate::True,
                1 => inner.swap_remove(0),
                _ => Predicate::And(inner),
            }
        }
        Predicate::Or(ps) => {
            let mut branches: Vec<Predicate> = ps.iter().map(normalize_predicate).collect();
            branches.sort_by_key(|p| format!("{p:?}"));
            Predicate::Or(branches)
        }
        Predicate::Not(p) => Predicate::Not(Box::new(normalize_predicate(p))),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logical::{col, LogicalExpr};
    use orchestra_engine::AggFunc;

    /// Q3-shaped three-relation join, built with slots in `order`.
    fn three_way(order: [usize; 3]) -> LogicalQuery {
        // Conceptual relations: 0 = customer, 1 = orders, 2 = lineitem.
        let names = ["customer", "orders", "lineitem"];
        let mut q = LogicalQuery::new();
        let mut slot = [usize::MAX; 3];
        for &i in &order {
            slot[i] = q.relation(names[i]);
        }
        q.filter(slot[0], Predicate::cmp(2, CmpOp::Eq, 5i64));
        q.join(col(slot[0], 0), col(slot[1], 1))
            .join(col(slot[2], 0), col(slot[1], 0))
            .select(vec![
                LogicalExpr::col(slot[1], 0),
                LogicalExpr::col(slot[2], 3),
            ])
            .aggregate(vec![0], vec![(AggFunc::Sum, 1)]);
        q
    }

    #[test]
    fn slot_order_and_edge_orientation_do_not_matter() {
        let a = fingerprint(&three_way([0, 1, 2]));
        let b = fingerprint(&three_way([2, 0, 1]));
        let c = fingerprint(&three_way([1, 2, 0]));
        assert_eq!(a, b);
        assert_eq!(a, c);

        // Flipping an edge changes nothing either.
        let mut flipped = three_way([0, 1, 2]);
        for e in &mut flipped.joins {
            std::mem::swap(&mut e.left, &mut e.right);
        }
        assert_eq!(fingerprint(&flipped), a);
    }

    #[test]
    fn predicate_shuffles_and_true_conjuncts_collide() {
        let base = || {
            let mut q = LogicalQuery::new();
            let r = q.relation("lineitem");
            q.select(vec![LogicalExpr::col(r, 0)]);
            (q, r)
        };
        let (mut a, r) = base();
        a.filter(r, Predicate::cmp(1, CmpOp::Lt, 10i64))
            .filter(r, Predicate::cmp(2, CmpOp::Ge, 3i64));
        let (mut b, r) = base();
        // Same conjuncts: one And, reversed order, plus a True.
        b.filter(
            r,
            Predicate::And(vec![
                Predicate::cmp(2, CmpOp::Ge, 3i64),
                Predicate::True,
                Predicate::cmp(1, CmpOp::Lt, 10i64),
            ]),
        );
        assert_eq!(fingerprint(&a), fingerprint(&b));

        // Symmetric column comparison orientation is canonical too.
        let (mut c, r) = base();
        c.filter(
            r,
            Predicate::CompareColumns {
                left: 3,
                op: CmpOp::Eq,
                right: 1,
            },
        );
        let (mut d, r) = base();
        d.filter(
            r,
            Predicate::CompareColumns {
                left: 1,
                op: CmpOp::Eq,
                right: 3,
            },
        );
        assert_eq!(fingerprint(&c), fingerprint(&d));
        // An asymmetric comparison must NOT be flipped.
        let (mut e, r) = base();
        e.filter(
            r,
            Predicate::CompareColumns {
                left: 3,
                op: CmpOp::Lt,
                right: 1,
            },
        );
        let (mut f, r) = base();
        f.filter(
            r,
            Predicate::CompareColumns {
                left: 1,
                op: CmpOp::Lt,
                right: 3,
            },
        );
        assert_ne!(fingerprint(&e), fingerprint(&f));
    }

    #[test]
    fn semantic_differences_change_the_fingerprint() {
        let q = three_way([0, 1, 2]);
        let base = fingerprint(&q);

        let mut other_constant = q.clone();
        other_constant.predicates[0].1 = Predicate::cmp(2, CmpOp::Eq, 6i64);
        assert_ne!(fingerprint(&other_constant), base);

        let mut other_agg = q.clone();
        other_agg.aggregation.as_mut().unwrap().aggs[0].0 = AggFunc::Min;
        assert_ne!(fingerprint(&other_agg), base);

        let mut other_select = q.clone();
        other_select.select.reverse(); // output column order is semantic
        assert_ne!(fingerprint(&other_select), base);

        let mut fewer_joins = q.clone();
        fewer_joins.joins.pop();
        assert_ne!(fingerprint(&fewer_joins), base);
    }

    #[test]
    fn self_joins_keep_their_slots_distinguishable() {
        let mut a = LogicalQuery::new();
        let r1 = a.relation("edges");
        let r2 = a.relation("edges");
        a.join(col(r1, 1), col(r2, 0))
            .filter(r1, Predicate::cmp(0, CmpOp::Eq, 1i64))
            .select(vec![LogicalExpr::col(r2, 1)]);

        // The same self-join but with the filter on the *other* slot is a
        // different query.
        let mut b = LogicalQuery::new();
        let r1 = b.relation("edges");
        let r2 = b.relation("edges");
        b.join(col(r1, 1), col(r2, 0))
            .filter(r2, Predicate::cmp(0, CmpOp::Eq, 1i64))
            .select(vec![LogicalExpr::col(r2, 1)]);
        assert_ne!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn prefix_sharing_equivalence_classes_are_complete_and_sound() {
        // The view registry executes ONE shared session for colliding
        // plans, so the equivalence classes must be complete (every
        // trivial respelling collides — a missed collision only wastes a
        // session) and sound (a near-miss must never collide — a false
        // collision would feed one view another view's rows).
        use std::collections::BTreeSet;

        // Completeness: all six slot permutations, with join-edge lists
        // flipped and reversed on top, collapse onto one fingerprint.
        let mut class: BTreeSet<QueryFingerprint> = BTreeSet::new();
        for order in [
            [0, 1, 2],
            [0, 2, 1],
            [1, 0, 2],
            [1, 2, 0],
            [2, 0, 1],
            [2, 1, 0],
        ] {
            let mut q = three_way(order);
            class.insert(fingerprint(&q));
            for e in &mut q.joins {
                std::mem::swap(&mut e.left, &mut e.right);
            }
            q.joins.reverse();
            class.insert(fingerprint(&q));
        }
        assert_eq!(
            class.len(),
            1,
            "every respelling of the three-way join must share one identity"
        );

        // Soundness: the same shape with one differing constant is a
        // distinct identity for every constant — pairwise and against
        // the base class.
        let mut identities = class;
        for c in [1i64, 2, 3, 4, 6, 1000] {
            let mut q = three_way([0, 1, 2]);
            q.predicates[0].1 = Predicate::cmp(2, CmpOp::Eq, c);
            identities.insert(fingerprint(&q));
        }
        assert_eq!(
            identities.len(),
            7,
            "each predicate constant must keep its own identity"
        );
    }

    #[test]
    fn catalogue_workload_fingerprints_are_stable_within_a_run() {
        // The canonical form is idempotent: canonicalizing twice changes
        // nothing, so fingerprints are stable however often they are
        // recomputed.
        let q = three_way([1, 0, 2]);
        let once = canonicalize(&q);
        let twice = canonicalize(&once);
        assert_eq!(once, twice);
        assert_eq!(fingerprint(&q), fingerprint(&once));
    }
}
