//! Foundational types for the chronicle data model.
//!
//! This crate defines the vocabulary shared by every other crate in the
//! workspace:
//!
//! * [`Value`] — the dynamically typed cell value stored in tuples,
//! * [`Tuple`] — an immutable, cheaply clonable row,
//! * [`Schema`] / [`Attribute`] / [`AttrType`] — typed relation and
//!   chronicle schemas, including which attribute (if any) is the
//!   *sequencing attribute* of a chronicle,
//! * [`SeqNo`] and [`Chronon`] — sequence numbers drawn from an infinite
//!   ordered domain and the temporal instants associated with them
//!   (paper §2.1),
//! * identifier newtypes for chronicles, relations, views and chronicle
//!   groups,
//! * [`ChronicleError`] — the typed error used across the workspace,
//! * [`mutate`] — the one reader of the test-only `CHRONICLE_MUTATE`
//!   backdoor behind verify.sh's mutation checks.
//!
//! The chronicle data model is from:
//! H. V. Jagadish, I. S. Mumick, A. Silberschatz,
//! *View Maintenance Issues for the Chronicle Data Model*, PODS 1995.

#![warn(missing_docs)]

pub mod codec;
mod error;
mod ids;
mod mutate;
mod schema;
mod seq;
mod tuple;
mod value;

pub use error::{ChronicleError, Result};
pub use ids::{ChronicleId, GroupId, RelationId, ViewId};
pub use mutate::mutate;
pub use schema::{AttrType, Attribute, Schema};
pub use seq::{Chronon, SeqNo};
pub use tuple::{Tuple, TupleBuilder};
pub use value::Value;
