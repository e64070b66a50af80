//! Vectorized σ/Π/γ delta kernels over columnar chunks.
//!
//! The scalar interpreter in [`crate::delta`] walks the operator tree once
//! per maintenance event and materializes an intermediate `ZSet` (a
//! `BTreeMap` of boxed tuples) at *every* operator boundary. For the
//! workhorse view shapes — `σ*/Π` chains over a single base chronicle,
//! summarized by projection or grouped aggregation — that constant factor
//! dominates the append hot path. The kernels here evaluate the same
//! delta batch column-at-a-time over a [`Chunk`]: predicates run as tight
//! typed loops over unboxed column lanes, no intermediate Z-sets exist,
//! and the whole chunk folds into one [`SummaryDelta`] (one signed delta
//! per group) in a single pass.
//!
//! **Equivalence contract.** A [`VectorPlan`] produces the *identical*
//! `SummaryDelta` — same tuples, same weights, same `BTreeMap` order —
//! and the *identical* [`WorkCounter`] charges as
//! [`crate::delta::DeltaEngine::delta_sca`] on the same batch. Work is
//! charged per logical tuple at each operator boundary; for an
//! insert-only append batch (all weights `+1`) per-row charging coincides
//! with the scalar path's per-|weight| charging even across
//! consolidation, because σ/Π preserve total absolute weight. Shapes the
//! planner does not recognize (joins, unions, differences, GROUPBY-SN,
//! relation products) return `None` from [`plan`] and stay on the scalar
//! interpreter. The `CHRONICLE_MUTATE=scalar_fallback` hook forces every
//! view onto the scalar path so CI can prove the vectorized kernels are
//! the ones producing benchmarked results.

use std::collections::BTreeMap;

use chronicle_store::{Chunk, ColumnSlice};
use chronicle_types::{ChronicleId, Result, Value};

use crate::delta::{DeltaBatch, SummaryDelta, WorkCounter};
use crate::expr::CaNode;
use crate::predicate::{Atom, Operand, Predicate};
use crate::sca::{ScaExpr, Summarize};
use crate::zset::ZSet;

/// One step of a compiled select/project chain, bottom-up order.
#[derive(Debug, Clone)]
enum PlanStep {
    /// σ_p over the current column mapping.
    Select(Predicate),
    /// Π — permutes the column mapping, never touches row data.
    Project(Vec<usize>),
}

/// A compiled vectorized plan: a `σ*/Π*` chain over one base chronicle
/// plus the summarization step. Built once per view registration and
/// reused for every append batch.
#[derive(Debug, Clone)]
pub struct VectorPlan {
    base: ChronicleId,
    steps: Vec<PlanStep>,
    summarize: Summarize,
}

impl VectorPlan {
    /// The base chronicle this plan consumes deltas of.
    pub fn base(&self) -> ChronicleId {
        self.base
    }
}

/// Compile `expr` into a vectorized plan, or `None` when the shape needs
/// the scalar interpreter (any join, union, difference, GROUPBY-SN or
/// relation operand).
pub fn plan(expr: &ScaExpr) -> Option<VectorPlan> {
    let mut steps = Vec::new();
    let mut node = expr.ca();
    let base = loop {
        match &*node.node {
            CaNode::Base(c) => break c.id,
            CaNode::Select { input, pred } => {
                steps.push(PlanStep::Select(pred.clone()));
                node = input;
            }
            CaNode::Project { input, cols } => {
                steps.push(PlanStep::Project(cols.clone()));
                node = input;
            }
            _ => return None,
        }
    };
    steps.reverse();
    Some(VectorPlan {
        base,
        steps,
        summarize: expr.summarize().clone(),
    })
}

/// Evaluate a plan over one append batch. `chunk` must be the columnar
/// transpose of `batch.tuples`. Charges `work` exactly as the scalar
/// interpreter would (see the module contract).
pub fn eval(
    plan: &VectorPlan,
    batch: &DeltaBatch,
    chunk: &Chunk,
    work: &mut WorkCounter,
) -> Result<SummaryDelta> {
    let empty = || match &plan.summarize {
        Summarize::Project { .. } => SummaryDelta::Rows(ZSet::new()),
        Summarize::GroupAgg { .. } => SummaryDelta::Groups(BTreeMap::new()),
    };
    if plan.base != batch.chronicle || chunk.is_empty() {
        // Scalar parity: a base mismatch yields an empty delta that flows
        // through every operator charging nothing.
        return Ok(empty());
    }
    debug_assert_eq!(chunk.len(), batch.tuples.len(), "chunk mirrors the batch");
    // Base: Δ is the batch itself, one output charge per tuple.
    work.tuples_out += chunk.len() as u64;
    // The live selection (row indices) and the mapping from the current
    // operator's output positions to physical chunk columns.
    let mut sel: Vec<u32> = (0..chunk.len() as u32).collect();
    let mut colmap: Vec<usize> = (0..chunk.arity()).collect();
    for step in &plan.steps {
        match step {
            PlanStep::Select(pred) => {
                work.tuples_in += sel.len() as u64;
                sel = filter(pred, chunk, &colmap, sel)?;
                work.tuples_out += sel.len() as u64;
            }
            PlanStep::Project(cols) => {
                let alive = sel.len() as u64;
                work.tuples_in += alive;
                work.tuples_out += alive;
                colmap = cols.iter().map(|&c| colmap[c]).collect();
            }
        }
    }
    // When the chain never projected, the χ-output tuple IS the appended
    // tuple — materialization is an `Arc` clone.
    let identity = colmap.len() == chunk.arity() && colmap.iter().enumerate().all(|(i, &c)| i == c);
    match &plan.summarize {
        Summarize::Project { cols } => {
            let final_cols: Vec<usize> = cols.iter().map(|&c| colmap[c]).collect();
            let mut rows = ZSet::new();
            for &i in &sel {
                work.tuples_in += 1;
                work.tuples_out += 1;
                rows.insert(batch.tuples[i as usize].project(&final_cols), 1);
            }
            Ok(SummaryDelta::Rows(rows))
        }
        Summarize::GroupAgg { group_cols, .. } => {
            let mut groups: BTreeMap<Vec<Value>, ZSet> = BTreeMap::new();
            for &i in &sel {
                work.tuples_in += 1;
                let t = if identity {
                    batch.tuples[i as usize].clone()
                } else {
                    batch.tuples[i as usize].project(&colmap)
                };
                let key: Vec<Value> = group_cols.iter().map(|&c| t.get(c).clone()).collect();
                groups.entry(key).or_default().insert(t, 1);
            }
            groups.retain(|_, z| !z.is_empty());
            work.tuples_out += groups.len() as u64;
            Ok(SummaryDelta::Groups(groups))
        }
    }
}

/// Apply a disjunctive predicate to the selection, column-at-a-time: each
/// atom filters only the rows no earlier atom matched (the scalar
/// evaluator's short-circuit order), so per-row atom evaluations — and
/// therefore type errors — match the scalar path.
fn filter(pred: &Predicate, chunk: &Chunk, colmap: &[usize], sel: Vec<u32>) -> Result<Vec<u32>> {
    let atoms = match pred {
        Predicate::True => return Ok(sel),
        Predicate::Or(atoms) => atoms,
    };
    let mut passed = Vec::new();
    let mut undecided = sel;
    for atom in atoms {
        if undecided.is_empty() {
            break;
        }
        let test = atom_test(atom, chunk, colmap);
        let mut still = Vec::with_capacity(undecided.len());
        for &i in &undecided {
            if test(i as usize)? {
                passed.push(i);
            } else {
                still.push(i);
            }
        }
        undecided = still;
    }
    passed.sort_unstable();
    Ok(passed)
}

/// NULL mask probe (empty mask = no NULLs in the column).
fn masked(nulls: &[bool], i: usize) -> bool {
    !nulls.is_empty() && nulls[i]
}

type RowTest<'a> = Box<dyn Fn(usize) -> Result<bool> + 'a>;

/// Compile one atom into a per-row test. Runtime-uniform columns compared
/// against a compatible constant (or a same-shape column) run unboxed;
/// everything else — mixed columns, NULL constants, genuine type
/// mismatches — falls back to [`Value::sql_cmp`] per row, preserving the
/// scalar path's semantics including its type errors.
fn atom_test<'a>(atom: &'a Atom, chunk: &'a Chunk, colmap: &[usize]) -> RowTest<'a> {
    use ColumnSlice as S;
    let lc = colmap[atom.left];
    let op = atom.op;
    match &atom.right {
        Operand::Const(k) => match (chunk.slice(lc), k) {
            (S::Int { vals, nulls }, Value::Int(c)) => {
                let c = *c;
                Box::new(move |i| Ok(!masked(nulls, i) && op.test(Some(vals[i].cmp(&c)))))
            }
            (S::Int { vals, nulls }, Value::Float(c)) => {
                let c = *c;
                Box::new(move |i| {
                    Ok(!masked(nulls, i) && op.test(Some((vals[i] as f64).total_cmp(&c))))
                })
            }
            (S::Float { vals, nulls }, Value::Float(c)) => {
                let c = *c;
                Box::new(move |i| Ok(!masked(nulls, i) && op.test(Some(vals[i].total_cmp(&c)))))
            }
            (S::Float { vals, nulls }, Value::Int(c)) => {
                let c = *c as f64;
                Box::new(move |i| Ok(!masked(nulls, i) && op.test(Some(vals[i].total_cmp(&c)))))
            }
            (S::Bool { vals, nulls }, Value::Bool(c)) => {
                let c = *c;
                Box::new(move |i| Ok(!masked(nulls, i) && op.test(Some(vals[i].cmp(&c)))))
            }
            (S::Str { vals, nulls }, Value::Str(c)) => Box::new(move |i| {
                Ok(!masked(nulls, i) && op.test(Some(vals[i].as_ref().cmp(c.as_ref()))))
            }),
            (S::Seq { vals, nulls }, Value::Seq(c)) => {
                let c = c.0;
                Box::new(move |i| Ok(!masked(nulls, i) && op.test(Some(vals[i].cmp(&c)))))
            }
            _ => Box::new(move |i| Ok(op.test(chunk.value_at(i, lc).sql_cmp(k)?))),
        },
        Operand::Attr(r) => {
            let rc = colmap[*r];
            match (chunk.slice(lc), chunk.slice(rc)) {
                (S::Int { vals: a, nulls: na }, S::Int { vals: b, nulls: nb }) => {
                    Box::new(move |i| {
                        Ok(!masked(na, i) && !masked(nb, i) && op.test(Some(a[i].cmp(&b[i]))))
                    })
                }
                (S::Float { vals: a, nulls: na }, S::Float { vals: b, nulls: nb }) => {
                    Box::new(move |i| {
                        Ok(
                            !masked(na, i)
                                && !masked(nb, i)
                                && op.test(Some(a[i].total_cmp(&b[i]))),
                        )
                    })
                }
                (S::Int { vals: a, nulls: na }, S::Float { vals: b, nulls: nb }) => {
                    Box::new(move |i| {
                        Ok(!masked(na, i)
                            && !masked(nb, i)
                            && op.test(Some((a[i] as f64).total_cmp(&b[i]))))
                    })
                }
                (S::Float { vals: a, nulls: na }, S::Int { vals: b, nulls: nb }) => {
                    Box::new(move |i| {
                        Ok(!masked(na, i)
                            && !masked(nb, i)
                            && op.test(Some(a[i].total_cmp(&(b[i] as f64)))))
                    })
                }
                (S::Str { vals: a, nulls: na }, S::Str { vals: b, nulls: nb }) => {
                    Box::new(move |i| {
                        Ok(!masked(na, i)
                            && !masked(nb, i)
                            && op.test(Some(a[i].as_ref().cmp(b[i].as_ref()))))
                    })
                }
                (S::Bool { vals: a, nulls: na }, S::Bool { vals: b, nulls: nb }) => {
                    Box::new(move |i| {
                        Ok(!masked(na, i) && !masked(nb, i) && op.test(Some(a[i].cmp(&b[i]))))
                    })
                }
                (S::Seq { vals: a, nulls: na }, S::Seq { vals: b, nulls: nb }) => {
                    Box::new(move |i| {
                        Ok(!masked(na, i) && !masked(nb, i) && op.test(Some(a[i].cmp(&b[i]))))
                    })
                }
                _ => Box::new(move |i| {
                    Ok(op.test(chunk.value_at(i, lc).sql_cmp(&chunk.value_at(i, rc))?))
                }),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AggFunc, AggSpec};
    use crate::delta::DeltaEngine;
    use crate::expr::CaExpr;
    use crate::predicate::CmpOp;
    use chronicle_store::{Catalog, Retention};
    use chronicle_types::{tuple, AttrType, Attribute, Schema, SeqNo, Tuple};

    fn fixture() -> (Catalog, ChronicleId) {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("acct", AttrType::Int),
                Attribute::new("amount", AttrType::Float),
                Attribute::new("tag", AttrType::Str),
            ],
            "sn",
        )
        .unwrap();
        let c = cat
            .create_chronicle("calls", g, cs, Retention::None)
            .unwrap();
        (cat, c)
    }

    fn batch(c: ChronicleId, rows: Vec<Tuple>) -> DeltaBatch {
        DeltaBatch {
            chronicle: c,
            seq: SeqNo(1),
            tuples: rows,
        }
    }

    fn rows() -> Vec<Tuple> {
        vec![
            tuple![SeqNo(1), 555i64, 2.0f64, "a"],
            tuple![SeqNo(1), 777i64, 9.0f64, "b"],
            tuple![SeqNo(1), 555i64, 4.5f64, "a"],
            tuple![SeqNo(1), 777i64, 9.0f64, "b"],
            tuple![SeqNo(1), 111i64, Value::Null, "c"],
        ]
    }

    /// Assert scalar and vectorized execution produce identical deltas
    /// AND identical work-counter charges for `expr` over `rows`.
    fn assert_equivalent(cat: &Catalog, c: ChronicleId, expr: &ScaExpr, rows: Vec<Tuple>) {
        let b = batch(c, rows);
        let chunk = Chunk::from_tuples(&b.tuples);
        let engine = DeltaEngine::new(cat);
        let mut scalar_work = WorkCounter::default();
        let scalar = engine.delta_sca(expr, &b, &mut scalar_work).unwrap();
        let plan = plan(expr).expect("shape is vectorizable");
        let mut vec_work = WorkCounter::default();
        let vectorized = eval(&plan, &b, &chunk, &mut vec_work).unwrap();
        assert_eq!(
            format!("{scalar:?}"),
            format!("{vectorized:?}"),
            "deltas must be identical"
        );
        assert_eq!(scalar_work, vec_work, "work charges must be identical");
    }

    #[test]
    fn select_chain_over_base_matches_scalar() {
        let (cat, c) = fixture();
        let e = CaExpr::chronicle(cat.chronicle(c));
        let p1 =
            Predicate::attr_cmp_const(e.schema(), "amount", CmpOp::Gt, Value::Float(1.0)).unwrap();
        let e = e.select(p1).unwrap();
        let p2 = Predicate::attr_cmp_const(e.schema(), "acct", CmpOp::Eq, Value::Int(555)).unwrap();
        let e = e.select(p2).unwrap();
        let expr = ScaExpr::project(e, &["acct", "amount"]).unwrap();
        assert_equivalent(&cat, c, &expr, rows());
    }

    #[test]
    fn grouped_aggregation_matches_scalar() {
        let (cat, c) = fixture();
        let e = CaExpr::chronicle(cat.chronicle(c));
        let expr = ScaExpr::group_agg(
            e,
            &["acct"],
            vec![
                AggSpec::new(AggFunc::CountStar, "n"),
                AggSpec::new(AggFunc::Sum(2), "total"),
            ],
        )
        .unwrap();
        assert_equivalent(&cat, c, &expr, rows());
    }

    #[test]
    fn projection_then_group_matches_scalar() {
        let (cat, c) = fixture();
        let e = CaExpr::chronicle(cat.chronicle(c));
        let p = Predicate::attr_cmp_const(e.schema(), "tag", CmpOp::Ne, Value::str("c")).unwrap();
        let e = e.select(p).unwrap().project(&["sn", "acct"]).unwrap();
        let expr =
            ScaExpr::group_agg(e, &["acct"], vec![AggSpec::new(AggFunc::CountStar, "n")]).unwrap();
        assert_equivalent(&cat, c, &expr, rows());
    }

    #[test]
    fn nulls_and_duplicates_match_scalar() {
        let (cat, c) = fixture();
        let e = CaExpr::chronicle(cat.chronicle(c));
        // amount > 1.0 is false for the NULL row on both paths.
        let p =
            Predicate::attr_cmp_const(e.schema(), "amount", CmpOp::Gt, Value::Float(1.0)).unwrap();
        let e = e.select(p).unwrap();
        let expr = ScaExpr::group_agg(
            e,
            &["acct"],
            vec![AggSpec::new(AggFunc::Avg(2), "avg_amount")],
        )
        .unwrap();
        // Rows include exact duplicates, which consolidate to weight 2.
        assert_equivalent(&cat, c, &expr, rows());
    }

    #[test]
    fn foreign_chronicle_yields_empty_delta_and_no_work() {
        let (mut cat, c) = fixture();
        let g2 = cat.create_group("g2").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("x", AttrType::Int),
            ],
            "sn",
        )
        .unwrap();
        let other = cat
            .create_chronicle("other", g2, cs, Retention::None)
            .unwrap();
        let e = CaExpr::chronicle(cat.chronicle(c));
        let expr =
            ScaExpr::group_agg(e, &["acct"], vec![AggSpec::new(AggFunc::CountStar, "n")]).unwrap();
        let p = plan(&expr).unwrap();
        let b = batch(other, vec![tuple![SeqNo(1), 1i64]]);
        let chunk = Chunk::from_tuples(&b.tuples);
        let mut w = WorkCounter::default();
        let d = eval(&p, &b, &chunk, &mut w).unwrap();
        assert!(d.is_empty());
        assert_eq!(w, WorkCounter::default());
    }

    #[test]
    fn join_shapes_are_not_planned() {
        let (cat, c) = fixture();
        let left = CaExpr::chronicle(cat.chronicle(c));
        let right = CaExpr::chronicle(cat.chronicle(c));
        let joined = left.join_seq(right).unwrap();
        let expr = ScaExpr::group_agg(
            joined,
            &["acct"],
            vec![AggSpec::new(AggFunc::CountStar, "n")],
        )
        .unwrap();
        assert!(plan(&expr).is_none());
    }

    #[test]
    fn mixed_runtime_tags_take_the_generic_lane_and_match_scalar() {
        let (cat, c) = fixture();
        // INT rows are legal in a FLOAT column, so `amount` holds mixed
        // runtime tags — the chunk demotes it to Mixed and the predicate
        // must fall back to the generic per-row comparison.
        let rows = vec![
            tuple![SeqNo(1), 555i64, 2i64, "a"],
            tuple![SeqNo(1), 777i64, 9.0f64, "b"],
            tuple![SeqNo(1), 555i64, 4i64, "a"],
            tuple![SeqNo(1), 111i64, Value::Null, "c"],
        ];
        let e = CaExpr::chronicle(cat.chronicle(c));
        let p =
            Predicate::attr_cmp_const(e.schema(), "amount", CmpOp::Gt, Value::Float(3.0)).unwrap();
        let e = e.select(p).unwrap();
        let expr = ScaExpr::project(e, &["acct", "amount"]).unwrap();
        assert_equivalent(&cat, c, &expr, rows);
    }

    #[test]
    fn attr_to_attr_comparison_matches_scalar() {
        let (cat, c) = fixture();
        let e = CaExpr::chronicle(cat.chronicle(c));
        // Cross-type column comparison: INT acct vs FLOAT amount.
        let p = Predicate::attr_cmp_attr(e.schema(), "acct", CmpOp::Gt, "amount").unwrap();
        let e = e.select(p).unwrap();
        let expr = ScaExpr::project(e, &["acct", "amount"]).unwrap();
        assert_equivalent(&cat, c, &expr, rows());
    }
}
