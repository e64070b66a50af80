//! Model-based property test for [`chronicle_store::Relation`]: a random
//! sequence of inserts / keyed deletes / upserts must leave the relation,
//! its primary-key index, and its non-key column lookups in exact agreement
//! with a naive `BTreeMap` model.

use std::collections::BTreeMap;

use chronicle_testkit::prop::{boxed, ints, map, triple, vec_of, weighted, Gen};
use chronicle_testkit::{prop_assert, prop_assert_eq, prop_test};

use chronicle_store::Relation;
use chronicle_types::{tuple, AttrType, Attribute, Schema, Tuple, Value};

#[derive(Debug, Clone)]
enum Op {
    Insert { k: i64, name: u8, state: u8 },
    DeleteKey { k: i64 },
    Upsert { k: i64, name: u8, state: u8 },
}

fn op_gen() -> impl Gen<Value = Op> {
    let field = || triple(ints(0..20i64), ints(0..5u8), ints(0..4u8));
    weighted(vec![
        (
            3,
            boxed(map(field(), |(k, name, state)| Op::Insert {
                k,
                name,
                state,
            })),
        ),
        (2, boxed(map(ints(0..20i64), |k| Op::DeleteKey { k }))),
        (
            2,
            boxed(map(field(), |(k, name, state)| Op::Upsert {
                k,
                name,
                state,
            })),
        ),
    ])
}

const STATES: [&str; 4] = ["NJ", "NY", "CA", "TX"];

fn row(k: i64, name: u8, state: u8) -> Tuple {
    tuple![k, format!("n{name}"), STATES[state as usize]]
}

prop_test! {
    fn relation_agrees_with_model(cases = 256, seed = 0xB72EE;
        ops in vec_of(op_gen(), 1..80),
    ) {
        let schema = Schema::relation_with_key(
            vec![
                Attribute::new("k", AttrType::Int),
                Attribute::new("name", AttrType::Str),
                Attribute::new("state", AttrType::Str),
            ],
            &["k"],
        )
        .unwrap();
        let mut rel = Relation::new(schema);
        let mut model: BTreeMap<i64, Tuple> = BTreeMap::new();

        for op in &ops {
            match op {
                Op::Insert { k, name, state } => {
                    let t = row(*k, *name, *state);
                    let res = rel.insert(t.clone());
                    if model.contains_key(k) {
                        prop_assert!(res.is_err(), "duplicate key {} must be rejected", k);
                    } else {
                        prop_assert!(res.is_ok());
                        model.insert(*k, t);
                    }
                }
                Op::DeleteKey { k } => {
                    let removed = rel.delete_by_key(&[Value::Int(*k)]);
                    prop_assert_eq!(removed.is_some(), model.remove(k).is_some());
                }
                Op::Upsert { k, name, state } => {
                    let t = row(*k, *name, *state);
                    let old = rel.upsert(t.clone()).unwrap();
                    let model_old = model.insert(*k, t);
                    prop_assert_eq!(old, model_old);
                }
            }

            // Global agreement after every step.
            prop_assert_eq!(rel.len(), model.len());
            for (k, t) in &model {
                prop_assert_eq!(rel.get_by_key(&[Value::Int(*k)]), Some(t));
                prop_assert!(rel.contains(t));
            }
            // Non-key lookups: for every state, the rows `lookup_cols`
            // finds (by scan) equal the model's filter.
            for state in STATES.iter() {
                let (hits, indexed) = rel.lookup_cols(&[2], &[Value::str(*state)]);
                prop_assert!(!indexed);
                let mut via_lookup: Vec<Tuple> = hits
                    .into_iter()
                    .cloned()
                    .collect();
                via_lookup.sort();
                let mut via_model: Vec<Tuple> = model
                    .values()
                    .filter(|t| t.get(2) == &Value::str(*state))
                    .cloned()
                    .collect();
                via_model.sort();
                prop_assert_eq!(via_lookup, via_model, "state lookup diverged for {}", state);
            }
        }
    }
}
