//! # orchestra-common
//!
//! Shared primitives used by every other crate in the ORCHESTRA
//! reproduction (Taylor & Ives, *Reliable Storage and Querying for
//! Collaborative Data Sharing Systems*, ICDE 2010).
//!
//! The paper's substrate works over the 160-bit output space of the SHA-1
//! cryptographic hash function (Section III-A); its storage layer
//! manipulates relational tuples identified by `(key attributes, epoch)`
//! tuple IDs (Section IV); and its recovery machinery tracks which nodes
//! have touched each tuple (Section V-D).  This crate provides the
//! corresponding building blocks:
//!
//! * [`Key160`] — a 160-bit unsigned integer with the ring arithmetic the
//!   substrate needs (wrapping add/sub, clockwise distance, midpoints, and
//!   division of the key space into equal ranges).
//! * [`sha1`] — a self-contained SHA-1 implementation (the paper hashes
//!   node addresses, tuple keys, relation/epoch pairs and page identifiers
//!   with SHA-1; we avoid an external dependency).
//! * [`Value`], [`Tuple`], [`Schema`], [`Relation`] — the relational data
//!   model, including serialized-size accounting used by the network
//!   traffic measurements.
//! * [`NodeId`], [`NodeSet`] — compact identifiers for participants and
//!   bitsets of participants (the provenance tags of Section V-D).
//! * [`ColumnarBatch`] — the columnar block format the engine moves
//!   tuples in: type-specialised column vectors, an interned-string pool
//!   ([`StringPool`]), and parallel sign/provenance tag columns, with
//!   lossless conversion to and from [`Tuple`] rows.
//! * [`QueryFingerprint`] — the SHA-1 identity of a canonical logical
//!   query, the `(fingerprint, epoch)` key of the serving layer's result
//!   cache.
//! * [`OrchestraError`] — the shared error type.
//! * [`rng`] — deterministic random-generation helpers so that every
//!   experiment in the benchmark harness is reproducible.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::unreachable))]

pub mod column;
pub mod error;
pub mod fingerprint;
pub mod key;
pub mod node;
pub mod rng;
pub mod schema;
pub mod sha1;
pub mod tuple;
pub mod value;

pub use column::{Arith, Column, ColumnData, ColumnarBatch, Number, Numbers, PoolMemo, StringPool};
pub use error::{OrchestraError, Result};
pub use fingerprint::QueryFingerprint;
pub use key::{Key160, KeyRange};
pub use node::{NodeId, NodeSet};
pub use schema::{ColumnType, Relation, Schema};
pub use tuple::{Epoch, PageEntry, Tuple, TupleId};
pub use value::Value;
