//! Materialized views over *relations* — maintained under inserts, updates
//! and deletes.
//!
//! Chronicle views ([`crate::PersistentView`]) are maintained append-only;
//! the Theorem 4.1 rules lean on the new-sequence-number argument. A
//! relation has no such argument — any row can be deleted at any time — so
//! a relation-backed view restricts itself to the retractable fragment
//! (σ/Π/γ with group-theoretic aggregates, validated by
//! [`chronicle_algebra::RelQuery`]) and absorbs **signed** Z-set deltas:
//! an insert arrives as `+1`, a delete as `−1`, an update as a `−old +new`
//! pair. The state is Z-set-shaped too: projection views keep signed
//! multiplicities, group views keep a live-row count next to the
//! accumulators, and an entry whose count reaches zero is removed — unless
//! the `CHRONICLE_MUTATE=skip_consolidation` sabotage is active, in which
//! case the zero-count residue stays *visible* through
//! [`RelationView::rows`], which is how the differential oracle suite
//! proves it would catch a dropped zero-weight elimination.

use std::collections::BTreeMap;

use crate::codec::{Reader, ReaderExt as _, Writer, WriterExt as _};
use chronicle_algebra::delta::SummaryDelta;
use chronicle_algebra::eval::seq_to_int;
use chronicle_algebra::{Accumulator, RelQuery, Summarize, WorkCounter};
use chronicle_store::Relation;
use chronicle_types::{mutate, ChronicleError, Result, Schema, Tuple, Value, ViewId};

/// Accumulators plus the signed count of live (filtered) base rows in the
/// group — the group exists exactly while `live > 0`.
#[derive(Debug)]
struct GroupState {
    accs: Vec<Accumulator>,
    live: i64,
}

#[derive(Debug)]
enum RelState {
    /// GROUPBY summarization: group key → accumulators + live-row count.
    Groups(BTreeMap<Vec<Value>, GroupState>),
    /// Projection summarization: row → signed multiplicity.
    Counts(BTreeMap<Tuple, i64>),
}

/// The materialized state of one relation-backed view.
#[derive(Debug)]
pub struct RelationView {
    id: ViewId,
    name: String,
    query: RelQuery,
    state: RelState,
    applied_batches: u64,
}

impl RelationView {
    /// Create an empty view for `query`.
    pub fn new(id: ViewId, name: impl Into<String>, query: RelQuery) -> Self {
        let state = match query.summarize() {
            Summarize::GroupAgg { .. } => RelState::Groups(BTreeMap::new()),
            Summarize::Project { .. } => RelState::Counts(BTreeMap::new()),
        };
        RelationView {
            id,
            name: name.into(),
            query,
            state,
            applied_batches: 0,
        }
    }

    /// View id.
    pub fn id(&self) -> ViewId {
        self.id
    }

    /// View name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The defining query.
    pub fn query(&self) -> &RelQuery {
        &self.query
    }

    /// The view's (relation) schema.
    pub fn schema(&self) -> &Schema {
        self.query.schema()
    }

    /// Number of materialized rows/groups.
    pub fn len(&self) -> usize {
        match &self.state {
            RelState::Groups(g) => g.len(),
            RelState::Counts(c) => c.len(),
        }
    }

    /// True iff the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of delta batches applied so far.
    pub fn applied_batches(&self) -> u64 {
        self.applied_batches
    }

    /// Apply a signed summarized delta. Same complexity shape as the
    /// chronicle-view apply: one ordered-map probe per affected group/row,
    /// work charged per logical tuple (by |weight|).
    pub fn apply(&mut self, delta: &SummaryDelta, work: &mut WorkCounter) -> Result<()> {
        match (&mut self.state, delta, self.query.summarize()) {
            (
                RelState::Groups(groups),
                SummaryDelta::Groups(batch),
                Summarize::GroupAgg { aggs, .. },
            ) => {
                for (key, members) in batch {
                    work.index_probes += 1;
                    let gs = groups.entry(key.clone()).or_insert_with(|| GroupState {
                        accs: aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                        live: 0,
                    });
                    for (t, w) in members.iter() {
                        work.tuples_in += w.unsigned_abs();
                        gs.live += w;
                        for acc in gs.accs.iter_mut() {
                            acc.update_weighted(t, w)?;
                        }
                    }
                    if gs.live < 0 {
                        return Err(ChronicleError::Internal(format!(
                            "relation view `{}`: group {key:?} retracted below zero rows",
                            self.name
                        )));
                    }
                    if gs.live == 0 && !mutate("skip_consolidation") {
                        groups.remove(key);
                    }
                }
            }
            (RelState::Counts(counts), SummaryDelta::Rows(rows), Summarize::Project { .. }) => {
                for (row, w) in rows.iter() {
                    work.index_probes += 1;
                    work.tuples_in += w.unsigned_abs();
                    let m = counts.entry(row.clone()).or_insert(0);
                    *m += w;
                    if *m < 0 {
                        return Err(ChronicleError::Internal(format!(
                            "relation view `{}`: row {row} retracted below zero",
                            self.name
                        )));
                    }
                    if *m == 0 && !mutate("skip_consolidation") {
                        counts.remove(row);
                    }
                }
            }
            _ => {
                return Err(ChronicleError::Internal(format!(
                    "delta kind does not match relation view `{}` summarization",
                    self.name
                )))
            }
        }
        self.applied_batches += 1;
        Ok(())
    }

    /// Materialize the full current contents, in index order. Presence in
    /// the map is what makes a row visible — a zero-count residue kept by
    /// the `skip_consolidation` mutation shows up here, on purpose.
    pub fn rows(&self) -> Vec<Tuple> {
        match &self.state {
            RelState::Groups(groups) => groups
                .iter()
                .map(|(key, gs)| {
                    let mut row = key.clone();
                    row.extend(gs.accs.iter().map(|a| seq_to_int(a.finalize())));
                    Tuple::new(row)
                })
                .collect(),
            RelState::Counts(counts) => counts.keys().cloned().collect(),
        }
    }

    /// Point lookup of one group's finalized row. `O(log |V|)`.
    pub fn get(&self, key: &[Value]) -> Option<Tuple> {
        match &self.state {
            RelState::Groups(groups) => groups.get(key).map(|gs| {
                let mut row = key.to_vec();
                row.extend(gs.accs.iter().map(|a| seq_to_int(a.finalize())));
                Tuple::new(row)
            }),
            RelState::Counts(counts) => {
                let t = Tuple::new(key.to_vec());
                counts.contains_key(&t).then_some(t)
            }
        }
    }

    /// A single aggregate value of one group.
    pub fn get_agg(&self, key: &[Value], agg_index: usize) -> Option<Value> {
        match &self.state {
            RelState::Groups(groups) => groups
                .get(key)
                .and_then(|gs| gs.accs.get(agg_index))
                .map(|a| seq_to_int(a.finalize())),
            RelState::Counts(_) => None,
        }
    }

    /// The signed multiplicity of a projected row (projection views only).
    pub fn multiplicity(&self, row: &Tuple) -> Option<i64> {
        match &self.state {
            RelState::Counts(c) => c.get(row).copied(),
            RelState::Groups(_) => None,
        }
    }

    /// Rebuild the state from a relation snapshot (view creation over a
    /// non-empty relation). Unlike chronicle views this is always possible:
    /// relations are fully stored.
    pub fn bootstrap(&mut self, rel: &Relation) -> Result<()> {
        match (&mut self.state, self.query.summarize()) {
            (RelState::Groups(groups), Summarize::GroupAgg { group_cols, aggs }) => {
                groups.clear();
                for t in rel.iter() {
                    if !self.query.matches(t)? {
                        continue;
                    }
                    let key: Vec<Value> = group_cols.iter().map(|&c| t.get(c).clone()).collect();
                    let gs = groups.entry(key).or_insert_with(|| GroupState {
                        accs: aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
                        live: 0,
                    });
                    gs.live += 1;
                    for acc in gs.accs.iter_mut() {
                        acc.update(t)?;
                    }
                }
            }
            (RelState::Counts(counts), Summarize::Project { cols }) => {
                counts.clear();
                for t in rel.iter() {
                    if !self.query.matches(t)? {
                        continue;
                    }
                    *counts.entry(t.project(cols)).or_insert(0) += 1;
                }
            }
            _ => unreachable!("state always matches summarize"),
        }
        Ok(())
    }

    /// Serialize the materialized state into a self-describing byte
    /// snapshot (checkpoint payload, same framing discipline as the
    /// chronicle-view codec but its own magic).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str("CHRR1");
        w.u64(self.applied_batches);
        match &self.state {
            RelState::Groups(groups) => {
                w.u8(0);
                w.u64(groups.len() as u64);
                for (key, gs) in groups {
                    w.u32(key.len() as u32);
                    for v in key {
                        w.value(v);
                    }
                    w.i64(gs.live);
                    w.u32(gs.accs.len() as u32);
                    for acc in &gs.accs {
                        w.accumulator(acc);
                    }
                }
            }
            RelState::Counts(counts) => {
                w.u8(1);
                w.u64(counts.len() as u64);
                for (row, n) in counts {
                    w.tuple(row);
                    w.i64(*n);
                }
            }
        }
        w.into_bytes()
    }

    /// Restore a snapshot produced by [`RelationView::snapshot`] into a
    /// fresh view over the *same* defining query.
    pub fn restore(
        id: ViewId,
        name: impl Into<String>,
        query: RelQuery,
        bytes: &[u8],
    ) -> Result<RelationView> {
        let mut view = RelationView::new(id, name, query);
        let mut r = Reader::new(bytes);
        let magic = r.str()?;
        if magic != "CHRR1" {
            return Err(ChronicleError::Internal(format!(
                "bad relation-view snapshot magic `{magic}`"
            )));
        }
        view.applied_batches = r.u64()?;
        let kind = r.u8()?;
        match (&mut view.state, kind, view.query.summarize()) {
            (RelState::Groups(groups), 0, Summarize::GroupAgg { aggs, .. }) => {
                let n = r.u64()?;
                for _ in 0..n {
                    let klen = r.u32()? as usize;
                    let mut key = Vec::with_capacity(klen);
                    for _ in 0..klen {
                        key.push(r.value()?);
                    }
                    let live = r.i64()?;
                    let alen = r.u32()? as usize;
                    if alen != aggs.len() {
                        return Err(ChronicleError::Internal(format!(
                            "snapshot has {alen} accumulators per group, view declares {}",
                            aggs.len()
                        )));
                    }
                    let mut accs = Vec::with_capacity(alen);
                    for spec in aggs {
                        let acc = r.accumulator()?;
                        if acc.func() != spec.func {
                            return Err(ChronicleError::Internal(format!(
                                "snapshot accumulator {} does not match view aggregate {}",
                                acc.func(),
                                spec.func
                            )));
                        }
                        accs.push(acc);
                    }
                    groups.insert(key, GroupState { accs, live });
                }
            }
            (RelState::Counts(counts), 1, Summarize::Project { .. }) => {
                let n = r.u64()?;
                for _ in 0..n {
                    let row = r.tuple()?;
                    let m = r.i64()?;
                    counts.insert(row, m);
                }
            }
            _ => {
                return Err(ChronicleError::Internal(
                    "snapshot kind does not match the relation view's summarization".into(),
                ))
            }
        }
        if !r.at_end() {
            return Err(ChronicleError::Internal(
                "trailing bytes after relation-view snapshot".into(),
            ));
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_algebra::{AggFunc, AggSpec, RelationRef, ZSet};
    use chronicle_store::Catalog;
    use chronicle_types::{tuple, AttrType, Attribute, RelationId};

    fn setup() -> (Catalog, RelationRef, RelationId) {
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
        (cat, RelationRef::new(r, rs, "accounts"), r)
    }

    fn sum_view(rel: RelationRef) -> RelationView {
        let q = RelQuery::group_agg(
            rel,
            vec![],
            &["region"],
            vec![
                AggSpec::new(AggFunc::Sum(2), "total"),
                AggSpec::new(AggFunc::CountStar, "n"),
            ],
        )
        .unwrap();
        RelationView::new(ViewId(0), "by_region", q)
    }

    fn apply(view: &mut RelationView, delta: ZSet) -> WorkCounter {
        let mut w = WorkCounter::default();
        let d = view.query().delta(&delta, &mut w).unwrap();
        view.apply(&d, &mut w).unwrap();
        w
    }

    #[test]
    fn insert_update_delete_round_trip() {
        let (_, rel, _) = setup();
        let mut v = sum_view(rel);
        apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], 1));
        apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 1.5f64], 1));
        assert_eq!(v.get_agg(&[Value::Int(10)], 0), Some(Value::Float(2.0)));
        // UPDATE acct 2: rate 1.5 → 2.5 as a −old +new pair.
        let mut upd = ZSet::new();
        upd.insert(tuple![2i64, 10i64, 1.5f64], -1);
        upd.insert(tuple![2i64, 10i64, 2.5f64], 1);
        apply(&mut v, upd);
        assert_eq!(v.get_agg(&[Value::Int(10)], 0), Some(Value::Float(3.0)));
        assert_eq!(v.get_agg(&[Value::Int(10)], 1), Some(Value::Int(2)));
        // DELETE both rows: the group itself disappears.
        apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], -1));
        apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 2.5f64], -1));
        assert!(v.is_empty(), "fully retracted group leaves no residue");
    }

    #[test]
    fn projection_counts_are_signed() {
        let (_, rel, _) = setup();
        let q = RelQuery::project(rel, vec![], &["region"]).unwrap();
        let mut v = RelationView::new(ViewId(1), "regions", q);
        apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], 1));
        apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 1.5f64], 1));
        assert_eq!(v.multiplicity(&tuple![10i64]), Some(2));
        assert_eq!(v.rows(), vec![tuple![10i64]], "set semantics");
        apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], -1));
        assert_eq!(v.multiplicity(&tuple![10i64]), Some(1));
        apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 1.5f64], -1));
        assert!(v.rows().is_empty());
    }

    #[test]
    fn over_retraction_is_loud() {
        let (_, rel, _) = setup();
        let q = RelQuery::project(rel, vec![], &["acct"]).unwrap();
        let mut v = RelationView::new(ViewId(1), "accts", q);
        let mut w = WorkCounter::default();
        let d = v
            .query()
            .delta(&ZSet::singleton(tuple![9i64, 10i64, 1.0f64], -1), &mut w)
            .unwrap();
        assert!(v.apply(&d, &mut w).is_err(), "deleting a missing row");
    }

    #[test]
    fn bootstrap_matches_incremental() {
        let (cat, rel, rid) = setup();
        let mut from_scratch = sum_view(rel.clone());
        from_scratch.bootstrap(cat.relation(rid).current()).unwrap();
        let mut incremental = sum_view(rel);
        apply(
            &mut incremental,
            ZSet::singleton(tuple![1i64, 10i64, 0.5f64], 1),
        );
        apply(
            &mut incremental,
            ZSet::singleton(tuple![2i64, 10i64, 1.5f64], 1),
        );
        assert_eq!(from_scratch.rows(), incremental.rows());
        // And both agree with the stateless oracle.
        let oracle = from_scratch
            .query()
            .eval(cat.relation(rid).current())
            .unwrap();
        assert_eq!(from_scratch.rows(), oracle);
    }

    #[test]
    fn snapshot_round_trip_both_kinds() {
        let (cat, rel, rid) = setup();
        let mut v = sum_view(rel.clone());
        v.bootstrap(cat.relation(rid).current()).unwrap();
        let restored =
            RelationView::restore(ViewId(7), "by_region", v.query().clone(), &v.snapshot())
                .unwrap();
        assert_eq!(restored.rows(), v.rows());
        // A restored view keeps retracting correctly.
        let mut restored = restored;
        apply(
            &mut restored,
            ZSet::singleton(tuple![1i64, 10i64, 0.5f64], -1),
        );
        assert_eq!(restored.get_agg(&[Value::Int(10)], 1), Some(Value::Int(1)));

        let q = RelQuery::project(rel, vec![], &["region"]).unwrap();
        let mut p = RelationView::new(ViewId(8), "regions", q);
        p.bootstrap(cat.relation(rid).current()).unwrap();
        let back =
            RelationView::restore(ViewId(8), "regions", p.query().clone(), &p.snapshot()).unwrap();
        assert_eq!(back.multiplicity(&tuple![10i64]), Some(2));
        // Cross-kind restore is rejected.
        assert!(RelationView::restore(ViewId(9), "x", v.query().clone(), &p.snapshot()).is_err());
    }
}
