//! Storage substrate for the chronicle data model.
//!
//! The paper (Def. 2.1) models a chronicle database system as a quadruple
//! *(C, R, L, V)*. This crate provides the first two components plus the
//! plumbing they need:
//!
//! * [`Relation`] — an in-memory relation with an optional primary-key
//!   hash index,
//! * [`TemporalRelation`] — a relation that additionally records its version
//!   history against the chronicle-group sequence domain, enforcing the
//!   *proactive update* rule of §2.3 and supporting `version_at(seq)`
//!   reconstruction (used by the oracle tests for the implicit temporal
//!   join of Example 2.2),
//! * [`Chronicle`] — an append-only sequence of tuples with a configurable
//!   [`Retention`] window (the paper stores at most "some latest time
//!   window" of each chronicle),
//! * [`ChronicleGroup`] — the shared sequence-number domain: monotonicity is
//!   enforced per *group*, not per chronicle (§4), and the group also keeps
//!   the monotone `SeqNo → Chronon` mapping that periodic views (§5.1) are
//!   defined over,
//! * [`Catalog`] — name-resolution and ownership of all of the above.

#![warn(missing_docs)]

mod catalog;
mod chronicle;
mod chunk;
mod group;
mod index;
mod relation;
mod temporal;

pub use catalog::Catalog;
pub use chronicle::{Chronicle, Retention};
pub use chunk::{Chunk, ChunkArena, ColumnSlice, ColumnVec};
pub use group::ChronicleGroup;
pub use relation::Relation;
pub use temporal::{RelationChange, TemporalRelation};
