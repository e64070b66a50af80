//! `chronicle-db`: the chronicle database system facade.
//!
//! [`ChronicleDb`] realizes Definition 2.1's quadruple *(C, R, L, V)*:
//! chronicles and relations live in a [`chronicle_store::Catalog`], the
//! language `L` is SCA (built directly or through the SQL front-end), and
//! the persistent views are driven by a [`chronicle_views::Maintainer`] on
//! every append.
//!
//! The crate also contains:
//!
//! * [`stats`] — append/maintenance accounting,
//! * [`shard`] — [`ShardedDb`]: the catalog hash-partitioned by chronicle
//!   group into independent maintenance shards (Thm 4.1 makes groups the
//!   natural unit), each with its own maintenance loop, WAL stream, and
//!   checkpoints. A one-shard `ShardedDb` is the general case of the
//!   engine: `ShardedDb::from(db)` wraps a [`ChronicleDb`] as it is,
//! * [`pipeline`] — the concurrent append pipeline: producers feed one
//!   maintenance thread per shard over `std::sync::mpsc` channels
//!   ([`pipeline::ShardedPipeline`]), so group commits and maintenance
//!   overlap across shards.
//!
//! Databases opened at a path ([`ChronicleDb::open`]) are durable: every
//! mutation is written to a segmented write-ahead log, and
//! [`ChronicleDb::checkpoint`] persists the views so the log can be
//! truncated — durable state is `O(|V| + tail)`, never the chronicle
//! itself. See the `chronicle_durability` crate for the format.

#![warn(missing_docs)]

mod db;
pub mod follower;
pub mod pipeline;
pub mod session;
pub mod shard;
pub mod stats;

pub use chronicle_durability::{
    DurabilityOptions, LsnRange, RecoveryPolicy, SalvageReport, ScrubReport,
};
pub use db::{AppendOutcome, ChronicleDb, ExecOutcome};
pub use follower::FollowerDb;
pub use session::{CachedOutcome, SessionTable, MAX_SESSIONS};
pub use shard::{shard_of_group, PlannedMove, ShardRoutes, ShardedDb};
pub use stats::{DbStats, LatencySample};
