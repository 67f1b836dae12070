//! Destination batching and lightweight compression, column-wise.
//!
//! "For performance, the query processor batches tuples into blocks by
//! destination, compressing them (using lightweight Zip-based compression)
//! and marshalling them in a format that exploits their commonalities"
//! (Section V-A).  Such a block is an [`orchestra_common::ColumnarBatch`]
//! — typed column vectors with an interned-string pool and parallel
//! sign/provenance tag columns — from the scan that builds it to the
//! report that reads it; this module prices one for the wire.  The
//! per-column dictionary encoding that models the paper's zip-based
//! scheme is read straight off the columns: each column computes its
//! distinct values and their one-copy byte size in a single cached pass
//! the first time its wire size is asked for, so batches that never
//! reach a wire never pay for pricing.
//!
//! Only the *size* of the encoding affects the simulation — the tuples
//! themselves travel in-memory — and the size formulas are byte-for-byte
//! those of the original row-at-a-time encoder for every uniform batch:
//!
//! * uncompressed: a 16-byte block header, then per row a 2-byte column
//!   count plus each value's wire encoding (plus the fixed
//!   [`TAG_WIRE_BYTES`] provenance tag when recovery support is on);
//! * compressed: the header, a 2-byte descriptor per column, per column
//!   `min(dictionary + 2-byte code per row, plain)`, the uncompressed
//!   tags, and a per-row presence bitmap — never worse than plain.
//!
//! Ragged blocks (rows of differing arity never occur in the engine's
//! pipeline, but the appenders stay defensive) are padded with NULLs: a
//! missing cell is a NULL and is priced at its real 1-byte serialized
//! size inside the column dictionary, rather than the arbitrary 16-byte
//! surcharge the old row encoder applied.

use crate::provenance::TAG_WIRE_BYTES;
use orchestra_common::ColumnarBatch;

/// Uncompressed wire size: per-tuple encodings plus (optionally)
/// provenance tags, plus a small block header.
pub fn uncompressed_size(batch: &ColumnarBatch, with_tags: bool) -> usize {
    let mut total = 16 + 2 * batch.len() + batch.plain_cell_bytes();
    if with_tags {
        total += batch.len() * TAG_WIRE_BYTES;
    }
    total
}

/// Compressed wire size under the dictionary encoding described in the
/// module docs.  Provenance tags, when carried, are not compressed
/// (they are high-entropy bitsets), matching the paper's observation
/// that recovery support adds at most ~2% traffic.
pub fn compressed_size(batch: &ColumnarBatch, with_tags: bool) -> usize {
    if batch.is_empty() {
        return 16;
    }
    let arity = batch.arity();
    let mut total = 16 + 2 * arity; // header + per-column descriptors
    for col in 0..arity {
        total += batch.encoded_column_size(col);
    }
    if with_tags {
        total += batch.len() * TAG_WIRE_BYTES;
    }
    // 2-byte per-row code vector entries are counted inside
    // encoded_column_size; add a small per-row presence bitmap.
    total += batch.len() / 8 + 1;
    total
}

/// Wire size of a batch: the compressed encoding, never worse than the
/// plain one.
pub fn wire_size(batch: &ColumnarBatch, with_tags: bool) -> usize {
    compressed_size(batch, with_tags).min(uncompressed_size(batch, with_tags))
}

#[cfg(test)]
mod tests {
    use super::*;
    use orchestra_common::{NodeId, NodeSet, Tuple, Value};

    fn row(key: i64, flag: &str, comment: &str) -> Tuple {
        Tuple::new(vec![Value::Int(key), Value::str(flag), Value::str(comment)])
    }

    /// `rows` as one batch of `arity` columns (short rows padded with
    /// NULLs), every row tagged as scanned by node 0 in phase 0.
    fn batch_of(arity: usize, rows: &[Tuple]) -> ColumnarBatch {
        ColumnarBatch::from_tuples(arity, rows, 1, NodeSet::singleton(NodeId(0)), 0)
    }

    #[test]
    fn empty_batch_has_header_only() {
        let b = ColumnarBatch::new(0);
        assert_eq!(wire_size(&b, true), 16);
        assert_eq!(uncompressed_size(&b, false), 16);
    }

    #[test]
    fn repetitive_columns_compress_well() {
        // 1000 rows with only two distinct flag values and identical
        // comments: the dictionary encoding should be much smaller than
        // the plain encoding.
        let rows: Vec<Tuple> = (0..1000)
            .map(|i| row(i, if i % 2 == 0 { "A" } else { "B" }, "same comment text"))
            .collect();
        let b = batch_of(3, &rows);
        let plain = uncompressed_size(&b, false);
        let compressed = compressed_size(&b, false);
        assert!(
            compressed < plain / 2,
            "compressed {compressed} vs plain {plain}"
        );
        // wire_size never exceeds the plain encoding.
        assert!(wire_size(&b, false) <= plain);
    }

    #[test]
    fn unique_columns_do_not_balloon() {
        // All-distinct values: the dictionary cannot help, but the fallback
        // keeps the size close to (never worse than) plain encoding.
        let rows: Vec<Tuple> = (0..500)
            .map(|i| row(i, &format!("flag{i}"), &format!("comment {i}")))
            .collect();
        let b = batch_of(3, &rows);
        assert!(compressed_size(&b, false) <= uncompressed_size(&b, false) + 1024);
    }

    #[test]
    fn tags_add_fixed_overhead() {
        let rows: Vec<Tuple> = (0..100).map(|i| row(i, "A", "x")).collect();
        let b = batch_of(3, &rows);
        let without = compressed_size(&b, false);
        let with = compressed_size(&b, true);
        assert_eq!(with - without, 100 * TAG_WIRE_BYTES);
    }

    #[test]
    fn sizes_match_the_row_formula_exactly() {
        // Cross-check the incremental columnar accounting against the
        // original row-at-a-time formulas, computed longhand.  The
        // longhand `min`s fold to constants; that is the point.
        #![allow(clippy::unnecessary_min_or_max)]
        let rows: Vec<Tuple> = (0..50)
            .map(|i| row(i % 5, if i % 2 == 0 { "A" } else { "B" }, "c"))
            .collect();
        let b = batch_of(3, &rows);
        let plain_rows: usize = rows.iter().map(Tuple::serialized_size).sum();
        assert_eq!(uncompressed_size(&b, false), 16 + plain_rows);
        assert_eq!(
            uncompressed_size(&b, true),
            16 + plain_rows + 50 * TAG_WIRE_BYTES
        );
        // Dictionary per column: 5 ints (9B each), 2 flags (6B each), one
        // comment (6B); plus 2B per row per column, descriptors, bitmap.
        let col0 = (5 * 9 + 2 * 50).min(50 * 9);
        let col1 = (2 * 6 + 2 * 50).min(50 * 6);
        let col2 = (6 + 2 * 50).min(50 * 6);
        assert_eq!(
            compressed_size(&b, false),
            16 + 2 * 3 + col0 + col1 + col2 + 50 / 8 + 1
        );
    }

    #[test]
    fn ragged_rows_price_missing_cells_as_real_nulls() {
        // Regression for the old encoder's arbitrary 16-byte surcharge on
        // rows too short for a column: a missing cell is a NULL and costs
        // its real 1-byte serialized size, entering the dictionary like
        // any other value.  The longhand formulas fold to constants.
        #![allow(clippy::unnecessary_min_or_max, clippy::identity_op)]
        let mut rows: Vec<Tuple> = (0..4)
            .map(|i| Tuple::new(vec![Value::Int(i), Value::str("pad-me")]))
            .collect();
        rows.push(Tuple::new(vec![Value::Int(4)]));
        let b = batch_of(2, &rows);
        assert_eq!(b.len(), 5);
        // The short row reads back padded with a NULL.
        assert!(b.value_at(4, 1).is_null());
        // Column 0: five distinct ints, dictionary cannot help.
        let col0 = (5 * 9 + 2 * 5).min(5 * 9);
        // Column 1: dictionary = "pad-me" (11B) + NULL (1B, not 16B);
        // plain = 4 strings + one 1-byte NULL.
        let col1 = (11 + 1 + 2 * 5).min(4 * 11 + 1);
        assert_eq!(
            compressed_size(&b, false),
            16 + 2 * 2 + col0 + col1 + 5 / 8 + 1
        );
    }
}
