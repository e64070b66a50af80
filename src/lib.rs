//! # chronicle
//!
//! A complete Rust implementation of the **chronicle data model** from
//! H. V. Jagadish, I. S. Mumick, A. Silberschatz,
//! *View Maintenance Issues for the Chronicle Data Model*, PODS 1995.
//!
//! This facade crate re-exports the public API of every workspace crate:
//!
//! * [`types`] — values, tuples, schemas, sequence numbers, errors,
//! * [`store`] — relations with primary-key indexes, temporal versioning,
//!   chronicles, chronicle groups,
//! * [`algebra`] — chronicle algebra (CA/CA₁/CA⋈), summarized chronicle
//!   algebra (SCA), validation, IM-complexity classification, the delta
//!   propagation engine, and the full evaluator over stored chronicles
//!   that serves as the correctness oracle,
//! * [`views`] — persistent views, the maintenance engine and affected-view
//!   router, calendars and periodic views, sliding-window optimization, and
//!   tiered batch-to-incremental computations,
//! * [`sql`] — the declarative SQL-like view-definition language,
//! * [`db`] — the [`db::ChronicleDb`] facade tying the quadruple
//!   (C, R, L, V) together, plus sharding and a concurrent append pipeline,
//! * [`durability`] — segmented write-ahead log, view checkpointing, and
//!   crash recovery backing [`db::ChronicleDb::open`],
//! * [`net`] — the wire protocol: a leader [`net::Server`] serving SQL
//!   over TCP, WAL log shipping, and follower [`net::Replica`]s serving
//!   read-only views,
//! * [`workload`] — seeded synthetic workload generators.
//!
//! ## Quick start
//!
//! ```
//! use chronicle::prelude::*;
//!
//! let mut db = ChronicleDb::new();
//! db.execute(
//!     "CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT)",
//! ).unwrap();
//! db.execute(
//!     "CREATE VIEW total_minutes AS \
//!      SELECT caller, SUM(minutes) AS mins FROM calls GROUP BY caller",
//! ).unwrap();
//! db.execute("APPEND INTO calls VALUES (1, 555, 12.5)").unwrap();
//! db.execute("APPEND INTO calls VALUES (2, 555, 2.5)").unwrap();
//! let rows = db.query_view("total_minutes").unwrap();
//! assert_eq!(rows.len(), 1);
//! ```
//!
//! For a database that survives restarts, open it at a path instead of
//! `ChronicleDb::new()`:
//!
//! ```no_run
//! use chronicle::prelude::*;
//!
//! let mut db = ChronicleDb::open("/var/lib/myapp/chronicle")?;
//! // … appends are logged; checkpoint() persists the views and truncates
//! // the log. Reopening the same path recovers exactly the state every
//! // acknowledged operation produced.
//! db.checkpoint()?;
//! # Ok::<(), ChronicleError>(())
//! ```

pub use chronicle_algebra as algebra;
pub use chronicle_db as db;
pub use chronicle_durability as durability;
pub use chronicle_net as net;
pub use chronicle_simkit as simkit;
pub use chronicle_sql as sql;
pub use chronicle_store as store;
pub use chronicle_types as types;
pub use chronicle_views as views;
pub use chronicle_workload as workload;

pub mod sim;

/// One-stop imports for examples and applications.
pub mod prelude {
    pub use chronicle_algebra::{
        AggFunc, CaExpr, ImClass, LanguageFragment, Predicate, ScaExpr, Summarize,
    };
    pub use chronicle_db::{
        AppendOutcome, ChronicleDb, DurabilityOptions, RecoveryPolicy, SalvageReport, ScrubReport,
    };
    pub use chronicle_store::{Catalog, Chronicle, ChronicleGroup, Relation};
    pub use chronicle_types::{
        AttrType, Attribute, ChronicleError, ChronicleId, Chronon, GroupId, RelationId, Schema,
        SeqNo, Tuple, TupleBuilder, Value, ViewId,
    };
    pub use chronicle_views::{Calendar, Interval, PersistentView, TierSchedule, ViewDef};
}
