//! Relation-backed view queries — the retractable fragment.
//!
//! Chronicle views (SCA) are maintained under *appends only*; the
//! Theorem 4.1 delta rules lean on the new-sequence-number argument and
//! break under deletion. Relations, however, take updates and deletes, so
//! a view over a relation needs operators whose delta rules are valid for
//! arbitrary signed Z-set weights. That fragment is σ/Π/γ over a single
//! relation with **retractable** aggregates (COUNT/SUM/AVG/STDDEV —
//! [`crate::AggFunc::is_retractable`]); MIN/MAX/FIRST/LAST are rejected at
//! construction with a typed explanation, mirroring how [`crate::CaExpr`]
//! rejects the constructions Theorem 4.3 excludes.
//!
//! A [`RelQuery`] is the validated, stateless description; the
//! materialized state is `chronicle-views`' one `PersistentView` state,
//! the same one chronicle views use (a `ViewDef::Relation` definition
//! gives its groups a live-row count). Deltas flow as [`crate::ZSet`]s (an
//! insert is `+1`, a delete `−1`, an update a `−old +new` pair) through
//! [`RelQuery::delta`], producing the same signed [`SummaryDelta`] that
//! chronicle views apply — one delta path and one view state for every
//! maintenance event in the system.

use std::collections::{BTreeMap, BTreeSet};

use chronicle_store::Relation;
use chronicle_types::{ChronicleError, Result, Schema, Tuple, Value};

use crate::aggregate::{aggregate_group, AggSpec};
use crate::delta::{SummaryDelta, WorkCounter};
use crate::expr::RelationRef;
use crate::predicate::Predicate;
use crate::sca::Summarize;
use crate::zset::ZSet;
use chronicle_types::RelationId;

/// A validated σ/Π/γ view definition over one relation, incrementally
/// maintainable under inserts, updates *and* deletes.
#[derive(Debug, Clone)]
pub struct RelQuery {
    relation: RelationId,
    rel_name: String,
    /// Conjunction of selection predicates (each itself a Def. 4.1
    /// disjunction): `σ_{p₁}∘σ_{p₂}∘…`. Empty = σ_true. Each σ is linear,
    /// so the stack commutes with signed deltas exactly like a single one.
    preds: Vec<Predicate>,
    summarize: Summarize,
    schema: Schema,
}

impl RelQuery {
    /// σ_preds(R) followed by a projection, columns given by name.
    pub fn project(rel: RelationRef, preds: Vec<Predicate>, names: &[&str]) -> Result<RelQuery> {
        let cols: Vec<usize> = names
            .iter()
            .map(|n| rel.schema.position(n))
            .collect::<Result<_>>()?;
        Self::project_cols(rel, preds, cols)
    }

    /// Positional variant of [`RelQuery::project`].
    pub fn project_cols(
        rel: RelationRef,
        preds: Vec<Predicate>,
        cols: Vec<usize>,
    ) -> Result<RelQuery> {
        for p in &preds {
            p.validate(&rel.schema)?;
        }
        let schema = rel.schema.project(&cols)?;
        Ok(RelQuery {
            relation: rel.id,
            rel_name: rel.name,
            preds,
            summarize: Summarize::Project { cols },
            schema,
        })
    }

    /// σ_preds(R) followed by GROUPBY with retractable aggregates, names
    /// resolved against the relation schema.
    pub fn group_agg(
        rel: RelationRef,
        preds: Vec<Predicate>,
        group_names: &[&str],
        aggs: Vec<AggSpec>,
    ) -> Result<RelQuery> {
        let group_cols: Vec<usize> = group_names
            .iter()
            .map(|n| rel.schema.position(n))
            .collect::<Result<_>>()?;
        Self::group_agg_cols(rel, preds, group_cols, aggs)
    }

    /// Positional variant of [`RelQuery::group_agg`].
    pub fn group_agg_cols(
        rel: RelationRef,
        preds: Vec<Predicate>,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
    ) -> Result<RelQuery> {
        for p in &preds {
            p.validate(&rel.schema)?;
        }
        if aggs.is_empty() {
            return Err(ChronicleError::BadAggregate {
                detail: "relation view GROUPBY needs at least one aggregate; use a projection \
                         for pure column selection"
                    .into(),
            });
        }
        for spec in &aggs {
            spec.func.validate(&rel.schema)?;
            if !spec.func.is_retractable() {
                return Err(ChronicleError::NotInLanguage {
                    language: "RQ",
                    reason: format!(
                        "{} over a relation is not incrementally maintainable: a delete can \
                         retract the current witness, forcing a rescan; relation views admit \
                         only the retractable aggregates (COUNT/SUM/AVG/STDDEV)",
                        spec.func
                    ),
                });
            }
        }
        let mut attrs = Vec::with_capacity(group_cols.len() + aggs.len());
        for &c in &group_cols {
            if c >= rel.schema.arity() {
                return Err(ChronicleError::UnknownAttribute {
                    name: format!("position {c}"),
                    context: "relation view GROUP BY".into(),
                });
            }
            attrs.push(rel.schema.attr(c).clone());
        }
        for spec in &aggs {
            attrs.push(chronicle_types::Attribute::new(
                &spec.name,
                spec.func.output_type(&rel.schema),
            ));
        }
        let schema = Schema::relation(attrs)?;
        Ok(RelQuery {
            relation: rel.id,
            rel_name: rel.name,
            preds,
            summarize: Summarize::GroupAgg { group_cols, aggs },
            schema,
        })
    }

    /// The backing relation's catalog id.
    pub fn relation(&self) -> RelationId {
        self.relation
    }

    /// The backing relation's name (diagnostics).
    pub fn rel_name(&self) -> &str {
        &self.rel_name
    }

    /// The selection predicates (a conjunction; empty = σ_true).
    pub fn preds(&self) -> &[Predicate] {
        &self.preds
    }

    /// Does `t` pass every selection predicate?
    pub fn matches(&self, t: &Tuple) -> Result<bool> {
        for p in &self.preds {
            if !p.eval(t)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// The summarization step.
    pub fn summarize(&self) -> &Summarize {
        &self.summarize
    }

    /// The view's output schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Map a relation-level Z-set delta through σ and the summarization
    /// into the same signed [`SummaryDelta`] chronicle views apply —
    /// weights ride through σ/Π untouched and bucket per group for γ.
    /// Work is charged per logical tuple (by |weight|), exactly like the
    /// chronicle delta rules.
    pub fn delta(&self, delta: &ZSet, work: &mut WorkCounter) -> Result<SummaryDelta> {
        match &self.summarize {
            Summarize::Project { cols } => {
                let mut rows = ZSet::new();
                for (t, w) in delta.iter() {
                    work.tuples_in += w.unsigned_abs();
                    if !self.matches(t)? {
                        continue;
                    }
                    work.tuples_out += w.unsigned_abs();
                    rows.insert(t.project(cols), w);
                }
                Ok(SummaryDelta::Rows(rows))
            }
            Summarize::GroupAgg { group_cols, .. } => {
                let mut groups: BTreeMap<Vec<Value>, ZSet> = BTreeMap::new();
                for (t, w) in delta.iter() {
                    work.tuples_in += w.unsigned_abs();
                    if !self.matches(t)? {
                        continue;
                    }
                    let key: Vec<Value> = group_cols.iter().map(|&c| t.get(c).clone()).collect();
                    groups.entry(key).or_default().insert(t.clone(), w);
                }
                groups.retain(|_, z| !z.is_empty());
                work.tuples_out += groups.len() as u64;
                Ok(SummaryDelta::Groups(groups))
            }
        }
    }

    /// Full (non-incremental) evaluation against a relation snapshot — the
    /// recomputation oracle the differential suite compares against, and
    /// the bootstrap source for views created over a non-empty relation.
    pub fn eval(&self, rel: &Relation) -> Result<Vec<Tuple>> {
        match &self.summarize {
            Summarize::Project { cols } => {
                let mut out: BTreeSet<Tuple> = BTreeSet::new();
                for t in rel.iter() {
                    if !self.matches(t)? {
                        continue;
                    }
                    out.insert(t.project(cols));
                }
                Ok(out.into_iter().collect())
            }
            Summarize::GroupAgg { group_cols, aggs } => {
                let mut groups: BTreeMap<Vec<Value>, Vec<&Tuple>> = BTreeMap::new();
                for t in rel.iter() {
                    if !self.matches(t)? {
                        continue;
                    }
                    let key: Vec<Value> = group_cols.iter().map(|&c| t.get(c).clone()).collect();
                    groups.entry(key).or_default().push(t);
                }
                let funcs: Vec<_> = aggs.iter().map(|a| a.func).collect();
                let mut out = Vec::with_capacity(groups.len());
                for (key, members) in groups {
                    let aggv = aggregate_group(&funcs, &members)?;
                    let mut row = key;
                    row.extend(aggv);
                    out.push(Tuple::new(row));
                }
                Ok(out)
            }
        }
    }
}

impl std::fmt::Display for RelQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sel: String = self.preds.iter().map(|p| format!("σ[{p}]")).collect();
        match &self.summarize {
            Summarize::Project { cols } => write!(f, "Π{cols:?}({sel}{})", self.rel_name),
            Summarize::GroupAgg { group_cols, aggs } => {
                write!(f, "GROUPBY({sel}{}, {group_cols:?}, [", self.rel_name)?;
                for (i, a) in aggs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} AS {}", a.func, a.name)?;
                }
                write!(f, "])")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggFunc;
    use crate::predicate::CmpOp;
    use chronicle_store::Catalog;
    use chronicle_types::{tuple, AttrType, Attribute};

    fn setup() -> (Catalog, RelationRef) {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let rs = Schema::relation_with_key(
            vec![
                Attribute::new("acct", AttrType::Int),
                Attribute::new("region", AttrType::Int),
                Attribute::new("rate", AttrType::Float),
            ],
            &["acct"],
        )
        .unwrap();
        let r = cat.create_relation("accounts", rs.clone()).unwrap();
        cat.relation_insert(r, g, tuple![1i64, 10i64, 0.5f64])
            .unwrap();
        cat.relation_insert(r, g, tuple![2i64, 10i64, 1.5f64])
            .unwrap();
        cat.relation_insert(r, g, tuple![3i64, 20i64, 2.0f64])
            .unwrap();
        (cat, RelationRef::new(r, rs, "accounts"))
    }

    #[test]
    fn non_retractable_aggregates_rejected() {
        let (_, rel) = setup();
        for func in [
            AggFunc::Min(2),
            AggFunc::Max(2),
            AggFunc::First(2),
            AggFunc::Last(2),
        ] {
            let err = RelQuery::group_agg(
                rel.clone(),
                vec![],
                &["region"],
                vec![AggSpec::new(func, "x")],
            )
            .unwrap_err();
            assert!(matches!(err, ChronicleError::NotInLanguage { .. }));
        }
        // Retractable ones are fine.
        RelQuery::group_agg(
            rel,
            vec![],
            &["region"],
            vec![
                AggSpec::new(AggFunc::Sum(2), "s"),
                AggSpec::new(AggFunc::CountStar, "n"),
            ],
        )
        .unwrap();
    }

    #[test]
    fn delta_routes_updates_as_minus_plus() {
        let (cat, rel) = setup();
        let q = RelQuery::group_agg(
            rel,
            vec![],
            &["region"],
            vec![AggSpec::new(AggFunc::Sum(2), "s")],
        )
        .unwrap();
        // UPDATE acct 2: rate 1.5 -> 2.5 within region 10.
        let mut delta = ZSet::new();
        delta.insert(tuple![2i64, 10i64, 1.5f64], -1);
        delta.insert(tuple![2i64, 10i64, 2.5f64], 1);
        let mut w = WorkCounter::default();
        let d = q.delta(&delta, &mut w).unwrap();
        match d {
            SummaryDelta::Groups(g) => {
                assert_eq!(g.len(), 1, "only region 10 affected");
                let z = &g[&vec![Value::Int(10)]];
                assert_eq!(z.weight(&tuple![2i64, 10i64, 1.5f64]), -1);
                assert_eq!(z.weight(&tuple![2i64, 10i64, 2.5f64]), 1);
            }
            _ => panic!("expected groups"),
        }
        assert_eq!(w.tuples_in, 2);
        let _ = cat;
    }

    #[test]
    fn delta_respects_selection() {
        let (_, rel) = setup();
        let p =
            Predicate::attr_cmp_const(&rel.schema, "rate", CmpOp::Gt, Value::Float(1.0)).unwrap();
        let q = RelQuery::project(rel, vec![p], &["region"]).unwrap();
        let mut delta = ZSet::new();
        delta.insert(tuple![7i64, 30i64, 0.5f64], 1); // filtered out
        delta.insert(tuple![8i64, 30i64, 5.0f64], 1); // kept
        let mut w = WorkCounter::default();
        match q.delta(&delta, &mut w).unwrap() {
            SummaryDelta::Rows(rows) => {
                assert_eq!(rows.entry_count(), 1);
                assert_eq!(rows.weight(&tuple![30i64]), 1);
            }
            _ => panic!("expected rows"),
        }
    }

    #[test]
    fn eval_is_the_recomputation_oracle() {
        let (cat, rel) = setup();
        let q = RelQuery::group_agg(
            rel.clone(),
            vec![],
            &["region"],
            vec![
                AggSpec::new(AggFunc::Sum(2), "s"),
                AggSpec::new(AggFunc::CountStar, "n"),
            ],
        )
        .unwrap();
        let rows = q.eval(cat.relation(rel.id).current()).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], tuple![10i64, 2.0f64, 2i64]);
        assert_eq!(rows[1], tuple![20i64, 2.0f64, 1i64]);

        let proj = RelQuery::project(rel.clone(), vec![], &["region"]).unwrap();
        let rows = proj.eval(cat.relation(rel.id).current()).unwrap();
        assert_eq!(rows, vec![tuple![10i64], tuple![20i64]], "set semantics");
    }
}
