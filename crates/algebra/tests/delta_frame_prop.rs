//! The delta frame rule (Theorem 4.1, operationally): for any CA
//! expression E and any admissible append Δ,
//!
//! ```text
//! eval(E, db after Δ)  ==  eval(E, db before Δ)  ⊎  delta(E, Δ)
//! ```
//!
//! as multisets — the delta engine computes *exactly* the new tuples, no
//! more, no less, for every operator combination. This is checked here for
//! randomly generated expressions and append histories, together with the
//! other half of Theorem 4.1: the delta and the work spent computing it do
//! not depend on how much history the chronicles hold.

use chronicle_testkit::prop::{boxed, ints, just, map, pair, triple, vec_of, weighted, Gen};
use chronicle_testkit::{prop_assert_eq, prop_test};

use chronicle_algebra::delta::{DeltaBatch, DeltaEngine};
use chronicle_algebra::eval::{canon, eval_ca};
use chronicle_algebra::{
    AggFunc, AggSpec, CaExpr, CmpOp, Operand, Predicate, RelationRef, WorkCounter,
};
use chronicle_store::{Catalog, Retention};
use chronicle_types::{
    tuple, AttrType, Attribute, ChronicleId, Chronon, Schema, SeqNo, Tuple, Value,
};

#[derive(Debug, Clone)]
enum Shape {
    Select(i8),
    Project,
    Union,
    Diff,
    JoinSeqSelves,
    GroupBySeq,
    KeyJoin,
    Product,
}

fn shape_gen() -> impl Gen<Value = Vec<Shape>> {
    vec_of(
        weighted(vec![
            (3, boxed(map(ints(-1..6i8), Shape::Select))),
            (1, boxed(just(Shape::Project))),
            (2, boxed(just(Shape::Union))),
            (2, boxed(just(Shape::Diff))),
            (1, boxed(just(Shape::JoinSeqSelves))),
            (1, boxed(just(Shape::GroupBySeq))),
            (1, boxed(just(Shape::KeyJoin))),
            (1, boxed(just(Shape::Product))),
        ]),
        0..5,
    )
}

fn setup() -> (Catalog, ChronicleId, ChronicleId, RelationRef) {
    let mut cat = Catalog::new();
    let g = cat.create_group("g").unwrap();
    let cs = Schema::chronicle(
        vec![
            Attribute::new("sn", AttrType::Seq),
            Attribute::new("k", AttrType::Int),
            Attribute::new("v", AttrType::Float),
        ],
        "sn",
    )
    .unwrap();
    let c1 = cat
        .create_chronicle("c1", g, cs.clone(), Retention::All)
        .unwrap();
    let c2 = cat.create_chronicle("c2", g, cs, Retention::All).unwrap();
    let rs = Schema::relation_with_key(
        vec![
            Attribute::new("k", AttrType::Int),
            Attribute::new("w", AttrType::Float),
        ],
        &["k"],
    )
    .unwrap();
    let r = cat.create_relation("r", rs.clone()).unwrap();
    for i in 0..4i64 {
        cat.relation_insert(r, g, tuple![i, 0.5f64]).unwrap();
    }
    (cat, c1, c2, RelationRef::new(r, rs, "r"))
}

fn build(
    cat: &Catalog,
    c1: ChronicleId,
    c2: ChronicleId,
    rel: &RelationRef,
    shapes: &[Shape],
) -> CaExpr {
    let base1 = CaExpr::chronicle(cat.chronicle(c1));
    let base2 = CaExpr::chronicle(cat.chronicle(c2));
    let mut expr = base1.clone();
    for s in shapes {
        expr = match s {
            Shape::Select(t) => {
                let Ok(pos) = expr.schema().position("v") else {
                    continue;
                };
                expr.clone()
                    .select(Predicate::atom(
                        pos,
                        CmpOp::Gt,
                        Operand::Const(Value::Float(*t as f64)),
                    ))
                    .unwrap_or(expr)
            }
            Shape::Project => {
                // SN first, then every other column reversed: an
                // order-shuffling projection that keeps every name.
                let sn = expr.seq_pos();
                let mut cols: Vec<usize> = (0..expr.schema().arity())
                    .filter(|&i| i != sn)
                    .rev()
                    .collect();
                cols.insert(0, sn);
                expr.clone().project_cols(cols).unwrap_or(expr)
            }
            Shape::Union if expr.schema().same_type(base1.schema()) => {
                expr.union(base2.clone()).unwrap()
            }
            Shape::Diff if expr.schema().same_type(base1.schema()) => {
                expr.diff(base2.clone()).unwrap()
            }
            Shape::JoinSeqSelves if expr.schema().arity() <= 3 => {
                match expr.clone().join_seq(base2.clone()) {
                    Ok(e) => e,
                    Err(_) => expr,
                }
            }
            Shape::GroupBySeq => {
                let sn = expr.seq_pos();
                let Ok(k) = expr.schema().position("k") else {
                    continue;
                };
                let Ok(v) = expr.schema().position("v") else {
                    continue;
                };
                expr.clone()
                    .group_by_seq_cols(
                        vec![sn, k],
                        vec![
                            AggSpec::new(AggFunc::Sum(v), "v"), // keep the name for later steps
                            AggSpec::new(AggFunc::CountStar, "n"),
                        ],
                    )
                    .unwrap_or(expr)
            }
            Shape::KeyJoin if expr.schema().arity() <= 5 => {
                if expr.schema().position("k").is_ok() {
                    match expr.clone().join_rel_key(rel.clone(), &["k"]) {
                        Ok(e) => e,
                        Err(_) => expr,
                    }
                } else {
                    expr
                }
            }
            Shape::Product if expr.schema().arity() <= 5 => {
                expr.clone().product(rel.clone()).unwrap_or(expr)
            }
            _ => expr,
        };
    }
    expr
}

/// Append every `(target, k, v)` of `history`, `times` over, one SN per
/// row; returns the last SN admitted.
fn replay(
    cat: &mut Catalog,
    c1: ChronicleId,
    c2: ChronicleId,
    history: &[(u8, i64, i64)],
    times: usize,
) -> u64 {
    let mut seq = 0u64;
    for _ in 0..times {
        for (t, k, v) in history {
            seq += 1;
            let target = if *t == 0 { c1 } else { c2 };
            cat.append_at(
                target,
                SeqNo(seq),
                Chronon(seq as i64),
                &[tuple![SeqNo(seq), *k, *v as f64]],
            )
            .unwrap();
        }
    }
    seq
}

prop_test! {
    fn delta_is_exactly_the_difference(cases = 96, seed = 0xDE17A;
        shapes in shape_gen(),
        history in vec_of(triple(ints(0..2u8), ints(0..5i64), ints(0..9i64)), 1..20),
        batch_rows in vec_of(pair(ints(0..5i64), ints(0..9i64)), 1..3),
        target in ints(0..2u8),
    ) {
        let (mut cat, c1, c2, rel) = setup();
        let expr = build(&cat, c1, c2, &rel, &shapes);
        let seq = replay(&mut cat, c1, c2, &history, 1) + 1;

        // Evaluate before.
        let before = canon(eval_ca(&cat, &expr).unwrap());

        // Compute the delta for the next batch, then actually append it.
        let batch_at = |seq: u64| -> Vec<Tuple> {
            batch_rows
                .iter()
                .map(|(k, v)| tuple![SeqNo(seq), *k, *v as f64])
                .collect()
        };
        let tuples = batch_at(seq);
        let chron = if target == 0 { c1 } else { c2 };
        let engine = DeltaEngine::new(&cat);
        let mut w = WorkCounter::default();
        let delta = engine
            .delta_ca(
                &expr,
                &DeltaBatch {
                    chronicle: chron,
                    seq: SeqNo(seq),
                    tuples: tuples.clone(),
                },
                &mut w,
            )
            .unwrap();
        cat.append_at(chron, SeqNo(seq), Chronon(seq as i64), &tuples).unwrap();

        // Evaluate after: must equal before ⊎ delta.
        let after = canon(eval_ca(&cat, &expr).unwrap());
        let mut expected = before.clone();
        expected.extend(delta.iter().cloned());
        let expected = canon(expected);
        prop_assert_eq!(
            after, expected,
            "frame rule violated for {} (|before|={}, |delta|={})",
            expr, before.len(), delta.len()
        );

        // Theorem 4.1 monotonicity: every delta tuple carries the new SN.
        for t in &delta {
            prop_assert_eq!(expr.seq_of(t).unwrap(), SeqNo(seq));
        }

        // Theorem 4.1 independence: the same batch over the history
        // repeated 16× yields a delta of the same size for exactly the
        // same work, field for field.
        let (mut long, ..) = setup();
        let long_seq = replay(&mut long, c1, c2, &history, 16) + 1;
        let mut long_w = WorkCounter::default();
        let long_delta = DeltaEngine::new(&long)
            .delta_ca(
                &expr,
                &DeltaBatch {
                    chronicle: chron,
                    seq: SeqNo(long_seq),
                    tuples: batch_at(long_seq),
                },
                &mut long_w,
            )
            .unwrap();
        prop_assert_eq!(
            long_delta.len(), delta.len(),
            "delta size depends on |C| for {}", expr
        );
        prop_assert_eq!(long_w, w, "work depends on |C| for {}", expr);
    }
}
