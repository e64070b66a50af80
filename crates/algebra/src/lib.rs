//! Chronicle algebra, summarized chronicle algebra, and the incremental
//! maintenance machinery — the formal core of the paper.
//!
//! * [`Predicate`] — the selection language of Def. 4.1: disjunctions of
//!   atomic comparisons `A θ B` / `A θ k`,
//! * [`AggFunc`] / [`Accumulator`] — incrementally computable (and
//!   decomposable) aggregation functions,
//! * [`CaExpr`] — chronicle algebra expressions with eager validation; the
//!   builders reject exactly the constructions Theorem 4.3 proves must be
//!   rejected (SN-dropping projection/grouping, chronicle×chronicle
//!   products, non-equi SN joins) with typed errors,
//! * [`ScaExpr`] / [`Summarize`] — the summarization step of Def. 4.3
//!   mapping a chronicle expression to a relation,
//! * [`LanguageFragment`] / [`ImClass`] — static classification into
//!   CA₁ ⊂ CA⋈ ⊂ CA and the incremental-maintenance complexity classes
//!   IM-Constant ⊂ IM-log(R) ⊂ IM-R^k ⊂ IM-C^k of §3, with the Theorem 4.2
//!   cost model,
//! * [`delta`] — the stateless delta-propagation engine implementing the
//!   Δ-rules from the Theorem 4.1 proof (no access to the chronicle, no
//!   materialized intermediates),
//! * [`eval`] — a full (non-incremental) evaluator over *stored* chronicles
//!   with exact temporal-join semantics; the correctness oracle.

#![warn(missing_docs)]

mod aggregate;
mod classify;
pub mod delta;
pub mod eval;
mod expr;
pub mod kernels;
mod predicate;
mod relq;
mod sca;
pub mod zset;

pub use aggregate::{AccState, Accumulator, AggFunc, AggSpec};
pub use classify::{CostModel, ImClass, LanguageFragment};
pub use delta::{DeltaBatch, SummaryDelta, WorkCounter};
pub use expr::{CaExpr, ChronicleRef, RelationRef};
pub use kernels::{plan as vector_plan, VectorPlan};
pub use predicate::{Atom, CmpOp, Operand, Predicate};
pub use relq::RelQuery;
pub use sca::{ScaExpr, Summarize};
pub use zset::ZSet;
