//! Persistent views and their incremental maintenance — component V of the
//! chronicle database quadruple (C, R, L, V).
//!
//! * [`PersistentView`] — one materialized view state for every
//!   [`ViewDef`]: group accumulators (or multiplicity counts for
//!   projection views) behind an ordered index, applied in `O(t log |V|)`
//!   per batch (Theorem 4.4). A chronicle view (SCA) is maintained
//!   append-only; a periodic family `V<D>` ([`PeriodicDef`]) is a chronicle
//!   view keyed by calendar interval, with expiration-driven space reuse;
//!   a relation view (RQ) under inserts, updates and deletes via signed
//!   Z-set deltas,
//! * [`Maintainer`] — the engine that, on every append (and every relation
//!   change), routes the delta to the affected views and drives
//!   propagation + application,
//! * [`Router`] — affected-view identification (§5.2): chronicle→view maps,
//!   guard-predicate pre-filters, and active-interval filters for periodic
//!   families,
//! * [`Calendar`] / [`Interval`] — sets of (possibly infinite, possibly
//!   overlapping) time intervals (§5.1),
//! * [`SlidingWindow`] — the cyclic-buffer optimization for overlapping
//!   windows ("keep the total number of shares sold for each of the last
//!   30 days separately"),
//! * [`TierSchedule`] — §5.3 batch→incremental conversions for tiered
//!   discount/fee/bonus computations.

#![warn(missing_docs)]

mod calendar;
pub mod codec;
pub mod events;
mod maintenance;
mod persistent;
mod router;
mod sliding;
mod tiered;

pub use calendar::{Calendar, Interval};
pub use events::{CompiledPattern, EventMatcher, Pattern};
pub use maintenance::{
    AppendEvent, BatchMode, Maintainer, MaintenanceReport, RouteMode, ViewReport,
};
pub use persistent::{PeriodicDef, PersistentView, ViewDef};
pub use router::{Router, RoutingDecision};
pub use sliding::SlidingWindow;
pub use tiered::{BatchDiscount, Tier, TierSchedule};
