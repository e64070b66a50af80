//! Experiment harness for the chronicle-model reproduction.
//!
//! The paper (a PODS extended abstract) has no numbered tables or figures;
//! its quantitative content is the theorems. DESIGN.md §6 derives one
//! experiment per theorem/claim, each a parameter sweep whose measured
//! curve must match the predicted shape. This crate is the **theorem-shape
//! record**: every figure it emits is a deterministic quantity — work
//! counters, bytes, record counts, moves, agreement flags — so two runs of
//! the same commit produce byte-identical output and the committed
//! `BENCH_E*.json` files are gated by equality, not a noise band.
//! Wall-clock performance is measured only by `crates/benchmark`
//! (`BENCHMARK.json`).
//!
//! `cargo run -p chronicle-bench --release --bin experiments` prints every
//! figure as a text table (the source of EXPERIMENTS.md); `-- json` writes
//! the `BENCH_E*.json` records at the repo root. [`baseline`] holds the
//! two non-CA comparators E1 and E7 measure against.

#![warn(missing_docs)]

pub mod baseline;
pub mod experiments;
pub mod harness;
pub mod json;
