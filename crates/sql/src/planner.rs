//! Lowering parsed view definitions onto the chronicle algebra.
//!
//! The planner is where "declarative" meets the paper's formal machinery:
//! the emitted [`ScaExpr`] is validated (and therefore *in the language*)
//! and statically classified — a `CREATE VIEW` either becomes a
//! maintainable SCA view or fails with the precise Theorem 4.3 /
//! Definition 4.2 reason.
//!
//! Join strategy: `JOIN r ON c = k` becomes the CA⋈ key join when the ON
//! columns cover `r`'s declared primary key (IM-log(R)); otherwise it
//! degrades to the full-CA product-plus-selection (IM-R^k). `CROSS JOIN`
//! always produces the product. The WHERE clause is pushed below the join
//! whenever all its columns resolve against the chronicle alone, which both
//! shrinks deltas and gives the §5.2 router a guard predicate.

use chronicle_algebra::{
    AggFunc, AggSpec, Atom, CaExpr, Operand, Predicate, RelQuery, RelationRef, ScaExpr,
};
use chronicle_store::Catalog;
use chronicle_types::{ChronicleError, Result, Schema, SeqNo, Tuple, Value};
use chronicle_views::ViewDef;

use crate::ast::{AggCall, Literal, SelectItem, ViewQuery, WhereAtom, WhereClause, WhereRhs};

/// Resolve `name` in `schema`, accepting qualified suffixes: `customers.state`
/// matches attribute `state` when no exact `customers.state` exists, and
/// vice versa.
fn resolve_col(schema: &Schema, name: &str) -> Result<usize> {
    if let Ok(p) = schema.position(name) {
        return Ok(p);
    }
    if let Some((_, suffix)) = name.split_once('.') {
        if let Ok(p) = schema.position(suffix) {
            return Ok(p);
        }
    }
    // The joined schema renames collisions to `rel.attr`; accept a bare
    // name that uniquely matches such a suffix.
    let matches: Vec<usize> = schema
        .attrs()
        .iter()
        .enumerate()
        .filter(|(_, a)| {
            a.name
                .rsplit_once('.')
                .is_some_and(|(_, suffix)| suffix == name)
        })
        .map(|(i, _)| i)
        .collect();
    match matches.as_slice() {
        [one] => Ok(*one),
        [] => Err(ChronicleError::UnknownAttribute {
            name: name.into(),
            context: "view definition".into(),
        }),
        _ => Err(ChronicleError::UnknownAttribute {
            name: format!("{name} (ambiguous)"),
            context: "view definition".into(),
        }),
    }
}

fn atom_to_predicate(schema: &Schema, atom: &WhereAtom) -> Result<Predicate> {
    let left = resolve_col(schema, &atom.left)?;
    let right = match &atom.right {
        WhereRhs::Lit(l) => Operand::Const(l.to_value()),
        WhereRhs::Col(c) => Operand::Attr(resolve_col(schema, c)?),
    };
    let pred = Predicate::Or(vec![Atom {
        left,
        op: atom.op,
        right,
    }]);
    pred.validate(schema)?;
    Ok(pred)
}

fn atoms_resolve(schema: &Schema, atoms: &[WhereAtom]) -> bool {
    atoms.iter().all(|a| {
        resolve_col(schema, &a.left).is_ok()
            && match &a.right {
                WhereRhs::Lit(_) => true,
                WhereRhs::Col(c) => resolve_col(schema, c).is_ok(),
            }
    })
}

fn apply_where(expr: CaExpr, clause: &WhereClause) -> Result<CaExpr> {
    match clause {
        WhereClause::And(atoms) => {
            // σ_{p∧q} = σ_p(σ_q(C)): stacked selections.
            let mut e = expr;
            for atom in atoms {
                let p = atom_to_predicate(e.schema(), atom)?;
                e = e.select(p)?;
            }
            Ok(e)
        }
        WhereClause::Or(atoms) => {
            let mut alg_atoms = Vec::with_capacity(atoms.len());
            for atom in atoms {
                let left = resolve_col(expr.schema(), &atom.left)?;
                let right = match &atom.right {
                    WhereRhs::Lit(l) => Operand::Const(l.to_value()),
                    WhereRhs::Col(c) => Operand::Attr(resolve_col(expr.schema(), c)?),
                };
                alg_atoms.push(Atom {
                    left,
                    op: atom.op,
                    right,
                });
            }
            let pred = Predicate::disjunction(alg_atoms)?;
            pred.validate(expr.schema())?;
            expr.select(pred)
        }
    }
}

fn agg_func(schema: &Schema, call: &AggCall) -> Result<AggFunc> {
    let arg = call
        .arg
        .as_deref()
        .map(|a| resolve_col(schema, a))
        .transpose()?;
    Ok(match (call.func.as_str(), arg) {
        ("COUNT", None) => AggFunc::CountStar,
        ("COUNT", Some(a)) => AggFunc::Count(a),
        ("SUM", Some(a)) => AggFunc::Sum(a),
        ("MIN", Some(a)) => AggFunc::Min(a),
        ("MAX", Some(a)) => AggFunc::Max(a),
        ("AVG", Some(a)) => AggFunc::Avg(a),
        ("STDDEV", Some(a)) => AggFunc::StdDev(a),
        ("FIRST", Some(a)) => AggFunc::First(a),
        ("LAST", Some(a)) => AggFunc::Last(a),
        (f, _) => {
            return Err(ChronicleError::BadAggregate {
                detail: format!("unsupported aggregate {f}"),
            })
        }
    })
}

/// Lower a parsed view query to a validated SCA expression.
pub fn plan_view(catalog: &Catalog, query: &ViewQuery) -> Result<ScaExpr> {
    let chron_id = catalog.chronicle_id(&query.from)?;
    let chronicle = catalog.chronicle(chron_id);
    let mut expr = CaExpr::chronicle(chronicle);

    // Push the WHERE below the join when it only references chronicle
    // columns.
    let mut pending_where = query.where_clause.clone();
    if let Some(clause) = &pending_where {
        let atoms = match clause {
            WhereClause::And(a) | WhereClause::Or(a) => a,
        };
        if atoms_resolve(expr.schema(), atoms) {
            expr = apply_where(expr, clause)?;
            pending_where = None;
        }
    }

    if let Some(join) = &query.join {
        let rel_id = catalog.relation_id(&join.relation)?;
        let rel_schema = catalog.relation(rel_id).current().schema().clone();
        let rel_ref = RelationRef::new(rel_id, rel_schema.clone(), join.relation.clone());
        if join.cross {
            expr = expr.product(rel_ref)?;
        } else {
            // Orient each ON pair: one side must resolve in the chronicle,
            // the other in the relation.
            let mut pairs: Vec<(String, String)> = Vec::with_capacity(join.on.len());
            for (l, r) in &join.on {
                let l_in_c = resolve_col(expr.schema(), l).is_ok();
                let r_in_rel = resolve_col(&rel_schema, r).is_ok();
                if l_in_c && r_in_rel {
                    pairs.push((l.clone(), r.clone()));
                } else if resolve_col(expr.schema(), r).is_ok()
                    && resolve_col(&rel_schema, l).is_ok()
                {
                    pairs.push((r.clone(), l.clone()));
                } else {
                    return Err(ChronicleError::UnknownAttribute {
                        name: format!("{l} = {r}"),
                        context: "JOIN ... ON".into(),
                    });
                }
            }
            // CA⋈ when the ON columns cover the relation's key.
            let covers_key = rel_schema.key().is_some_and(|key| {
                key.len() == pairs.len()
                    && key.iter().all(|&k| {
                        pairs
                            .iter()
                            .any(|(_, r)| resolve_col(&rel_schema, r).is_ok_and(|p| p == k))
                    })
            });
            if covers_key {
                // Order chronicle attrs to match the key order, resolving
                // qualified names (`calls.acct`) to the schema's canonical
                // attribute names before handing them to the algebra.
                let key = rel_schema.key().expect("checked").to_vec();
                let mut chron_attrs: Vec<String> = Vec::with_capacity(key.len());
                for &k in &key {
                    let (c, _) = pairs
                        .iter()
                        .find(|(_, r)| resolve_col(&rel_schema, r).is_ok_and(|p| p == k))
                        .expect("covers_key checked");
                    let pos = resolve_col(expr.schema(), c)?;
                    chron_attrs.push(expr.schema().attr(pos).name.to_string());
                }
                let refs: Vec<&str> = chron_attrs.iter().map(String::as_str).collect();
                expr = expr.join_rel_key(rel_ref, &refs)?;
            } else {
                // Degrade to full CA: product + equality selections.
                let chron_arity = expr.schema().arity();
                expr = expr.product(rel_ref)?;
                for (c, r) in &pairs {
                    let left = resolve_col(expr.schema(), c)?;
                    // Resolve the relation column within the joined suffix.
                    let rel_pos = resolve_col(&rel_schema, r)?;
                    let right = chron_arity + rel_pos;
                    let pred = Predicate::Or(vec![Atom {
                        left,
                        op: chronicle_algebra::CmpOp::Eq,
                        right: Operand::Attr(right),
                    }]);
                    pred.validate(expr.schema())?;
                    expr = expr.select(pred)?;
                }
            }
        }
    }

    if let Some(clause) = &pending_where {
        expr = apply_where(expr, clause)?;
    }

    // Summarization.
    let plain: Vec<&String> = query
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Column(c) => Some(c),
            SelectItem::Agg(_) => None,
        })
        .collect();
    let aggs: Vec<&AggCall> = query
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Agg(a) => Some(a),
            SelectItem::Column(_) => None,
        })
        .collect();

    if aggs.is_empty() {
        if !query.group_by.is_empty() {
            return Err(ChronicleError::Parse {
                message: "GROUP BY without aggregates: list the columns in SELECT instead".into(),
                offset: 0,
            });
        }
        let names: Vec<&str> = plain.iter().map(|s| s.as_str()).collect();
        let cols: Vec<usize> = names
            .iter()
            .map(|n| resolve_col(expr.schema(), n))
            .collect::<Result<_>>()?;
        ScaExpr::project_cols(expr, cols)
    } else {
        // Every plain column must be in GROUP BY, and vice versa.
        for c in &plain {
            if !query.group_by.contains(c) {
                return Err(ChronicleError::Parse {
                    message: format!("column `{c}` appears in SELECT but not in GROUP BY"),
                    offset: 0,
                });
            }
        }
        let group_cols: Vec<usize> = query
            .group_by
            .iter()
            .map(|n| resolve_col(expr.schema(), n))
            .collect::<Result<_>>()?;
        let specs: Vec<AggSpec> = aggs
            .iter()
            .map(|call| Ok(AggSpec::new(agg_func(expr.schema(), call)?, &call.alias)))
            .collect::<Result<_>>()?;
        ScaExpr::group_agg_cols(expr, group_cols, specs)
    }
}

/// Lower a parsed view query against whichever source `FROM` names: a
/// chronicle plans to SCA exactly as [`plan_view`] (append-only
/// maintenance); a relation plans onto the retractable [`RelQuery`]
/// fragment (σ/Π/γ, no joins; maintained under inserts, updates and
/// deletes via signed Z-set deltas).
pub fn plan_any_view(catalog: &Catalog, query: &ViewQuery) -> Result<ViewDef> {
    if catalog.relation_id(&query.from).is_ok() && catalog.chronicle_id(&query.from).is_err() {
        return plan_relation_view(catalog, query).map(ViewDef::Relation);
    }
    // A chronicle — or neither, and then the chronicle-resolution error
    // names the missing source.
    plan_view(catalog, query).map(ViewDef::Chronicle)
}

/// Lower a view whose `FROM` is a relation onto [`RelQuery`].
fn plan_relation_view(catalog: &Catalog, query: &ViewQuery) -> Result<RelQuery> {
    let rid = catalog.relation_id(&query.from)?;
    let schema = catalog.relation(rid).current().schema().clone();
    if query.join.is_some() {
        return Err(ChronicleError::NotInLanguage {
            language: "RQ",
            reason: "JOIN is only available with a chronicle on the left; a relation view \
                     covers σ/Π/γ over a single relation"
                .into(),
        });
    }
    // A conjunction becomes stacked σ (each predicate linear over Z-sets);
    // a disjunction is one Def. 4.1 predicate.
    let preds: Vec<Predicate> = match &query.where_clause {
        None => Vec::new(),
        Some(WhereClause::And(atoms)) => atoms
            .iter()
            .map(|a| atom_to_predicate(&schema, a))
            .collect::<Result<_>>()?,
        Some(WhereClause::Or(atoms)) => {
            let alg_atoms: Vec<Atom> = atoms
                .iter()
                .map(|atom| {
                    let left = resolve_col(&schema, &atom.left)?;
                    let right = match &atom.right {
                        WhereRhs::Lit(l) => Operand::Const(l.to_value()),
                        WhereRhs::Col(c) => Operand::Attr(resolve_col(&schema, c)?),
                    };
                    Ok(Atom {
                        left,
                        op: atom.op,
                        right,
                    })
                })
                .collect::<Result<_>>()?;
            let pred = Predicate::disjunction(alg_atoms)?;
            pred.validate(&schema)?;
            vec![pred]
        }
    };

    let rel_ref = RelationRef::new(rid, schema.clone(), query.from.clone());
    let plain: Vec<&String> = query
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Column(c) => Some(c),
            SelectItem::Agg(_) => None,
        })
        .collect();
    let aggs: Vec<&AggCall> = query
        .items
        .iter()
        .filter_map(|i| match i {
            SelectItem::Agg(a) => Some(a),
            SelectItem::Column(_) => None,
        })
        .collect();

    if aggs.is_empty() {
        if !query.group_by.is_empty() {
            return Err(ChronicleError::Parse {
                message: "GROUP BY without aggregates: list the columns in SELECT instead".into(),
                offset: 0,
            });
        }
        let cols: Vec<usize> = plain
            .iter()
            .map(|n| resolve_col(&schema, n))
            .collect::<Result<_>>()?;
        RelQuery::project_cols(rel_ref, preds, cols)
    } else {
        for c in &plain {
            if !query.group_by.contains(c) {
                return Err(ChronicleError::Parse {
                    message: format!("column `{c}` appears in SELECT but not in GROUP BY"),
                    offset: 0,
                });
            }
        }
        let group_cols: Vec<usize> = query
            .group_by
            .iter()
            .map(|n| resolve_col(&schema, n))
            .collect::<Result<_>>()?;
        let specs: Vec<AggSpec> = aggs
            .iter()
            .map(|call| Ok(AggSpec::new(agg_func(&schema, call)?, &call.alias)))
            .collect::<Result<_>>()?;
        RelQuery::group_agg_cols(rel_ref, preds, group_cols, specs)
    }
}

/// Convert a literal row into a tuple conforming to `schema`.
///
/// For chronicle schemas the row may omit the sequencing attribute (the
/// usual case — the system assigns it): pass the admitted `seq` and it is
/// spliced in at the SN position. A full-arity row may also spell the SN
/// explicitly as an integer, which is converted to a `Seq` value (and must
/// then match `seq` if provided).
pub fn resolve_literal_row(
    schema: &Schema,
    literals: &[Literal],
    seq: Option<SeqNo>,
) -> Result<Tuple> {
    let arity = schema.arity();
    let values: Vec<Value> = match (schema.seq_attr(), literals.len()) {
        (Some(sp), n) if n == arity - 1 => {
            let seq = seq.ok_or_else(|| {
                ChronicleError::Internal(
                    "sequence number required to complete chronicle row".into(),
                )
            })?;
            let mut v: Vec<Value> = Vec::with_capacity(arity);
            let mut it = literals.iter();
            for i in 0..arity {
                if i == sp {
                    v.push(Value::Seq(seq));
                } else {
                    v.push(it.next().expect("arity checked").to_value());
                }
            }
            v
        }
        (Some(sp), n) if n == arity => literals
            .iter()
            .enumerate()
            .map(|(i, l)| {
                if i == sp {
                    match l {
                        Literal::Int(x) if *x >= 0 => Ok(Value::Seq(SeqNo(*x as u64))),
                        other => Err(ChronicleError::TypeMismatch {
                            context: "sequencing attribute".into(),
                            left: format!("{other:?}"),
                            right: "non-negative integer".into(),
                        }),
                    }
                } else {
                    Ok(l.to_value())
                }
            })
            .collect::<Result<_>>()?,
        (None, n) if n == arity => literals.iter().map(Literal::to_value).collect(),
        (_, n) => {
            return Err(ChronicleError::ArityMismatch {
                expected: arity,
                found: n,
            })
        }
    };
    let t = Tuple::new(values);
    t.check_against(schema)?;
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Statement;
    use crate::parser::parse;
    use chronicle_algebra::{ImClass, LanguageFragment};
    use chronicle_store::Retention;
    use chronicle_types::{AttrType, Attribute};

    fn setup() -> Catalog {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("caller", AttrType::Int),
                Attribute::new("minutes", AttrType::Float),
                Attribute::new("dest", AttrType::Str),
            ],
            "sn",
        )
        .unwrap();
        cat.create_chronicle("calls", g, cs, Retention::None)
            .unwrap();
        let rs = Schema::relation_with_key(
            vec![
                Attribute::new("acct", AttrType::Int),
                Attribute::new("state", AttrType::Str),
                Attribute::new("rate", AttrType::Float),
            ],
            &["acct"],
        )
        .unwrap();
        cat.create_relation("customers", rs).unwrap();
        let keyless = Schema::relation(vec![
            Attribute::new("region", AttrType::Str),
            Attribute::new("surcharge", AttrType::Float),
        ])
        .unwrap();
        cat.create_relation("surcharges", keyless).unwrap();
        cat
    }

    fn plan(cat: &Catalog, sql: &str) -> Result<ScaExpr> {
        match parse(sql)? {
            Statement::CreateView { query, .. } => plan_view(cat, &query),
            other => panic!("expected CREATE VIEW, got {other:?}"),
        }
    }

    #[test]
    fn simple_group_view_is_sca1() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, SUM(minutes) AS mins FROM calls GROUP BY caller",
        )
        .unwrap();
        assert_eq!(v.fragment(), LanguageFragment::Ca1);
        assert_eq!(v.im_class(), ImClass::Constant);
        assert_eq!(v.schema().arity(), 2);
        assert_eq!(v.schema().attr(1).name.as_ref(), "mins");
    }

    #[test]
    fn key_join_view_is_sca_join() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls \
             JOIN customers ON caller = acct GROUP BY caller",
        )
        .unwrap();
        assert_eq!(v.fragment(), LanguageFragment::CaKey);
        assert_eq!(v.im_class(), ImClass::LogR);
    }

    #[test]
    fn reversed_on_pair_still_key_join() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls \
             JOIN customers ON acct = caller GROUP BY caller",
        )
        .unwrap();
        assert_eq!(v.fragment(), LanguageFragment::CaKey);
    }

    #[test]
    fn cross_join_is_full_sca() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls \
             CROSS JOIN customers GROUP BY caller",
        )
        .unwrap();
        assert_eq!(v.fragment(), LanguageFragment::Ca);
        assert_eq!(v.im_class(), ImClass::PolyR);
    }

    #[test]
    fn non_key_join_degrades_to_product_select() {
        let cat = setup();
        // `state` is not the key of customers.
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT dest, COUNT(*) AS n FROM calls \
             JOIN customers ON dest = state GROUP BY dest",
        )
        .unwrap();
        assert_eq!(v.fragment(), LanguageFragment::Ca);
    }

    #[test]
    fn keyless_relation_join_degrades() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT dest, COUNT(*) AS n FROM calls \
             JOIN surcharges ON dest = region GROUP BY dest",
        )
        .unwrap();
        assert_eq!(v.fragment(), LanguageFragment::Ca);
    }

    #[test]
    fn where_pushed_below_join_guards_chronicle() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, SUM(minutes) AS m FROM calls \
             JOIN customers ON caller = acct WHERE minutes > 10.0 GROUP BY caller",
        )
        .unwrap();
        // The guard shows up at the base: the router can use it.
        let guards = v.ca().base_guards();
        assert_eq!(guards.len(), 1);
        assert_eq!(guards[0].1.len(), 1, "minutes > 10 pushed to the chronicle");
    }

    #[test]
    fn where_on_relation_column_stays_above_join() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls \
             JOIN customers ON caller = acct WHERE state = 'NJ' GROUP BY caller",
        )
        .unwrap();
        let guards = v.ca().base_guards();
        assert!(
            guards[0].1.is_empty(),
            "relation predicate cannot guard the base"
        );
        assert_eq!(v.fragment(), LanguageFragment::CaKey);
    }

    #[test]
    fn or_where_single_selection() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls \
             WHERE dest = 'NYC' OR dest = 'LA' GROUP BY caller",
        )
        .unwrap();
        let guards = v.ca().base_guards();
        assert_eq!(guards[0].1.len(), 1, "one disjunctive σ");
    }

    #[test]
    fn projection_view_without_aggregates() {
        let cat = setup();
        let v = plan(&cat, "CREATE VIEW v AS SELECT caller, dest FROM calls").unwrap();
        assert!(matches!(
            v.summarize(),
            chronicle_algebra::Summarize::Project { .. }
        ));
        assert_eq!(v.schema().arity(), 2);
    }

    #[test]
    fn selecting_sn_in_summarization_rejected() {
        let cat = setup();
        let err = plan(&cat, "CREATE VIEW v AS SELECT sn, caller FROM calls").unwrap_err();
        assert!(matches!(err, ChronicleError::NotInLanguage { .. }));
    }

    #[test]
    fn global_aggregate_no_group_by() {
        let cat = setup();
        let v = plan(&cat, "CREATE VIEW v AS SELECT COUNT(*) AS n FROM calls").unwrap();
        assert_eq!(v.schema().arity(), 1);
    }

    #[test]
    fn ungrouped_plain_column_rejected() {
        let cat = setup();
        let err = plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls",
        )
        .unwrap_err();
        assert!(err.to_string().contains("GROUP BY"));
    }

    #[test]
    fn group_by_without_aggregates_rejected() {
        let cat = setup();
        assert!(plan(
            &cat,
            "CREATE VIEW v AS SELECT caller FROM calls GROUP BY caller"
        )
        .is_err());
    }

    #[test]
    fn unknown_names_rejected() {
        let cat = setup();
        assert!(plan(&cat, "CREATE VIEW v AS SELECT ghost FROM calls").is_err());
        assert!(plan(&cat, "CREATE VIEW v AS SELECT caller FROM ghost").is_err());
        assert!(plan(
            &cat,
            "CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls \
             JOIN ghost ON caller = acct GROUP BY caller"
        )
        .is_err());
    }

    #[test]
    fn qualified_names_resolve() {
        let cat = setup();
        let v = plan(
            &cat,
            "CREATE VIEW v AS SELECT calls.caller, SUM(calls.minutes) AS m \
             FROM calls GROUP BY calls.caller",
        )
        .unwrap();
        assert_eq!(v.schema().arity(), 2);
    }

    fn plan_rel(cat: &Catalog, sql: &str) -> Result<RelQuery> {
        match parse(sql)? {
            Statement::CreateView { query, .. } => match plan_any_view(cat, &query)? {
                ViewDef::Relation(q) => Ok(q),
                ViewDef::Chronicle(_) | ViewDef::Periodic(_) => panic!("expected a relation view"),
            },
            other => panic!("expected CREATE VIEW, got {other:?}"),
        }
    }

    #[test]
    fn relation_from_plans_to_relquery() {
        let cat = setup();
        let q = plan_rel(
            &cat,
            "CREATE VIEW v AS SELECT state, COUNT(*) AS n, AVG(rate) AS r \
             FROM customers GROUP BY state",
        )
        .unwrap();
        assert_eq!(q.rel_name(), "customers");
        assert_eq!(q.schema().arity(), 3);
        assert_eq!(q.schema().attr(1).name.as_ref(), "n");
    }

    #[test]
    fn relation_projection_with_conjunctive_where() {
        let cat = setup();
        let q = plan_rel(
            &cat,
            "CREATE VIEW v AS SELECT acct FROM customers \
             WHERE rate > 1.0 AND state = 'NJ'",
        )
        .unwrap();
        assert_eq!(q.preds().len(), 2, "stacked σ");
        assert_eq!(q.schema().arity(), 1);
    }

    #[test]
    fn relation_view_rejects_join_and_min_max() {
        let cat = setup();
        match parse(
            "CREATE VIEW v AS SELECT state, COUNT(*) AS n FROM customers \
             JOIN surcharges ON state = region GROUP BY state",
        )
        .unwrap()
        {
            Statement::CreateView { query, .. } => {
                let err = plan_any_view(&cat, &query).unwrap_err();
                assert!(matches!(err, ChronicleError::NotInLanguage { .. }));
            }
            _ => unreachable!(),
        }
        match parse("CREATE VIEW v AS SELECT state, MAX(rate) AS m FROM customers GROUP BY state")
            .unwrap()
        {
            Statement::CreateView { query, .. } => {
                let err = plan_any_view(&cat, &query).unwrap_err();
                assert!(
                    matches!(err, ChronicleError::NotInLanguage { language: "RQ", .. }),
                    "MAX not retractable: {err}"
                );
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn chronicle_from_still_plans_to_sca() {
        let cat = setup();
        match parse("CREATE VIEW v AS SELECT caller, COUNT(*) AS n FROM calls GROUP BY caller")
            .unwrap()
        {
            Statement::CreateView { query, .. } => {
                assert!(matches!(
                    plan_any_view(&cat, &query).unwrap(),
                    ViewDef::Chronicle(_)
                ));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn resolve_literal_row_variants() {
        let cat = setup();
        let schema = cat
            .chronicle(cat.chronicle_id("calls").unwrap())
            .schema()
            .clone();
        // SN omitted: spliced in.
        let t = resolve_literal_row(
            &schema,
            &[
                Literal::Int(555),
                Literal::Float(1.5),
                Literal::Str("NYC".into()),
            ],
            Some(SeqNo(7)),
        )
        .unwrap();
        assert_eq!(t.seq_at(0).unwrap(), SeqNo(7));
        // SN explicit as integer.
        let t = resolve_literal_row(
            &schema,
            &[
                Literal::Int(9),
                Literal::Int(555),
                Literal::Float(1.5),
                Literal::Str("NYC".into()),
            ],
            None,
        )
        .unwrap();
        assert_eq!(t.seq_at(0).unwrap(), SeqNo(9));
        // Wrong arity.
        assert!(resolve_literal_row(&schema, &[Literal::Int(1)], Some(SeqNo(1))).is_err());
        // Negative SN.
        assert!(resolve_literal_row(
            &schema,
            &[
                Literal::Int(-1),
                Literal::Int(555),
                Literal::Float(1.5),
                Literal::Str("NYC".into())
            ],
            None,
        )
        .is_err());
    }
}
