//! Materialized persistent views.
//!
//! A persistent view stores *only itself* (Theorem 4.4's space bound): for a
//! group-aggregation view, an ordered map from group key to decomposed
//! accumulator states; for a projection view, an ordered map from row to
//! multiplicity (so set semantics survive insert-only maintenance). The
//! underlying chronicle and the chronicle-algebra intermediates are never
//! stored.
//!
//! The ordered map (B-tree) realizes the paper's `O(t · log|V|)` apply
//! bound: one ordered-index probe per affected group/row.

use std::collections::BTreeMap;

use crate::codec::{ReaderExt as _, WriterExt as _};
use chronicle_algebra::delta::SummaryDelta;
use chronicle_algebra::eval::seq_to_int;
use chronicle_algebra::{Accumulator, ScaExpr, Summarize, WorkCounter};
use chronicle_store::Catalog;
use chronicle_types::{mutate, ChronicleError, Result, Schema, Tuple, Value, ViewId};

/// The materialized state of one SCA persistent view.
#[derive(Debug)]
pub struct PersistentView {
    id: ViewId,
    name: String,
    expr: ScaExpr,
    state: ViewState,
    /// Batches applied (diagnostics).
    applied_batches: u64,
}

#[derive(Debug)]
enum ViewState {
    /// GROUPBY summarization: group key → accumulators.
    Groups(BTreeMap<Vec<Value>, Vec<Accumulator>>),
    /// Projection summarization: row → signed multiplicity. Chronicle
    /// appends only add, but the state is Z-set-shaped so the same apply
    /// path absorbs signed deltas; a row whose multiplicity reaches zero is
    /// removed (unless the `skip_consolidation` mutation is active — the
    /// lingering zero-count row is then *visible* through [`PersistentView::rows`],
    /// which is what lets the differential suite catch the mutation).
    Counts(BTreeMap<Tuple, i64>),
}

impl PersistentView {
    /// Create an empty view for `expr`.
    pub fn new(id: ViewId, name: impl Into<String>, expr: ScaExpr) -> Self {
        let state = match expr.summarize() {
            Summarize::GroupAgg { .. } => ViewState::Groups(BTreeMap::new()),
            Summarize::Project { .. } => ViewState::Counts(BTreeMap::new()),
        };
        PersistentView {
            id,
            name: name.into(),
            expr,
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

    /// The defining SCA expression.
    pub fn expr(&self) -> &ScaExpr {
        &self.expr
    }

    /// The view's (relation) schema.
    pub fn schema(&self) -> &Schema {
        self.expr.schema()
    }

    /// Number of rows (groups / distinct projected rows) currently
    /// materialized — the `|V|` of Theorem 4.4.
    pub fn len(&self) -> usize {
        match &self.state {
            ViewState::Groups(g) => g.len(),
            ViewState::Counts(c) => c.len(),
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

    /// Apply a summarized delta — the Theorem 4.4 step. `O(t)` ordered-map
    /// probes, `t` = affected groups/rows; each probe is `O(log |V|)`.
    /// Work is charged per logical tuple (by |weight|), so batch-internal
    /// consolidation never perturbs the counters.
    pub fn apply(&mut self, delta: &SummaryDelta, work: &mut WorkCounter) -> Result<()> {
        match (&mut self.state, delta, self.expr.summarize()) {
            (
                ViewState::Groups(groups),
                SummaryDelta::Groups(batch),
                Summarize::GroupAgg { aggs, .. },
            ) => {
                for (key, members) in batch {
                    work.index_probes += 1; // one O(log|V|) group lookup
                    let accs = groups
                        .entry(key.clone())
                        .or_insert_with(|| aggs.iter().map(|a| Accumulator::new(a.func)).collect());
                    for (t, w) in members.iter() {
                        work.tuples_in += w.unsigned_abs();
                        for acc in accs.iter_mut() {
                            acc.update_weighted(t, w)?;
                        }
                    }
                }
            }
            (ViewState::Counts(counts), SummaryDelta::Rows(rows), Summarize::Project { .. }) => {
                for (row, w) in rows.iter() {
                    work.index_probes += 1;
                    work.tuples_in += w.unsigned_abs();
                    let m = counts.entry(row.clone()).or_insert(0);
                    *m += w;
                    if *m == 0 && !mutate("skip_consolidation") {
                        counts.remove(row);
                    }
                }
            }
            _ => {
                return Err(ChronicleError::Internal(format!(
                    "delta kind does not match view `{}` summarization",
                    self.name
                )))
            }
        }
        self.applied_batches += 1;
        Ok(())
    }

    /// Materialize the full current contents as relation rows (group keys +
    /// finalized aggregates, or distinct projected rows), in index order.
    pub fn rows(&self) -> Vec<Tuple> {
        match &self.state {
            ViewState::Groups(groups) => groups
                .iter()
                .map(|(key, accs)| {
                    let mut row = key.clone();
                    row.extend(accs.iter().map(|a| seq_to_int(a.finalize())));
                    Tuple::new(row)
                })
                .collect(),
            ViewState::Counts(counts) => counts.keys().cloned().collect(),
        }
    }

    /// Point lookup of one group's finalized row (the sub-second summary
    /// query of §1). `O(log |V|)`.
    pub fn get(&self, key: &[Value]) -> Option<Tuple> {
        match &self.state {
            ViewState::Groups(groups) => groups.get(key).map(|accs| {
                let mut row = key.to_vec();
                row.extend(accs.iter().map(|a| seq_to_int(a.finalize())));
                Tuple::new(row)
            }),
            ViewState::Counts(counts) => {
                let t = Tuple::new(key.to_vec());
                counts.contains_key(&t).then_some(t)
            }
        }
    }

    /// A single aggregate value of one group (convenience for summary
    /// fields like `minutes_called` / `dollar_balance`).
    pub fn get_agg(&self, key: &[Value], agg_index: usize) -> Option<Value> {
        match &self.state {
            ViewState::Groups(groups) => groups
                .get(key)
                .and_then(|accs| accs.get(agg_index))
                .map(|a| seq_to_int(a.finalize())),
            ViewState::Counts(_) => None,
        }
    }

    /// Bootstrap the view from fully stored chronicles (used when a view is
    /// defined *after* data already exists — "materialized when it is
    /// initially defined", §2.1). Requires `Retention::All` on every base
    /// chronicle; otherwise returns the underlying
    /// [`ChronicleError::ChronicleNotStored`].
    pub fn bootstrap(&mut self, catalog: &Catalog) -> Result<()> {
        let chron_rows = chronicle_algebra::eval::eval_ca(catalog, self.expr.ca())?;
        match (&mut self.state, self.expr.summarize()) {
            (ViewState::Groups(groups), Summarize::GroupAgg { group_cols, aggs }) => {
                groups.clear();
                for t in &chron_rows {
                    let key: Vec<Value> = group_cols.iter().map(|&c| t.get(c).clone()).collect();
                    let accs = groups
                        .entry(key)
                        .or_insert_with(|| aggs.iter().map(|a| Accumulator::new(a.func)).collect());
                    for acc in accs.iter_mut() {
                        acc.update(t)?;
                    }
                }
            }
            (ViewState::Counts(counts), Summarize::Project { cols }) => {
                counts.clear();
                for t in &chron_rows {
                    *counts.entry(t.project(cols)).or_insert(0) += 1;
                }
            }
            _ => unreachable!("state always matches summarize"),
        }
        Ok(())
    }

    /// The signed multiplicity of a projected row (projection views only) —
    /// exposes the counting mechanism for tests and ablations.
    pub fn multiplicity(&self, row: &Tuple) -> Option<i64> {
        match &self.state {
            ViewState::Counts(c) => c.get(row).copied(),
            ViewState::Groups(_) => None,
        }
    }

    /// Serialize the materialized state (not the defining expression) into
    /// a self-describing byte snapshot. Persistent views are the only
    /// durable state of a chronicle system — the chronicle is not stored —
    /// so snapshot + restore is what makes restarts possible.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        w.str("CHRV1");
        w.u64(self.applied_batches);
        match &self.state {
            ViewState::Groups(groups) => {
                w.u8(0);
                w.u64(groups.len() as u64);
                for (key, accs) in groups {
                    w.u32(key.len() as u32);
                    for v in key {
                        w.value(v);
                    }
                    w.u32(accs.len() as u32);
                    for acc in accs {
                        w.accumulator(acc);
                    }
                }
            }
            ViewState::Counts(counts) => {
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

    /// Restore a snapshot produced by [`PersistentView::snapshot`] into a
    /// fresh view over the *same* defining expression. Fails on magic,
    /// kind, or structural mismatch.
    pub fn restore(
        id: ViewId,
        name: impl Into<String>,
        expr: ScaExpr,
        bytes: &[u8],
    ) -> Result<PersistentView> {
        let mut view = PersistentView::new(id, name, expr);
        let mut r = crate::codec::Reader::new(bytes);
        let magic = r.str()?;
        if magic != "CHRV1" {
            return Err(ChronicleError::Internal(format!(
                "bad snapshot magic `{magic}`"
            )));
        }
        view.applied_batches = r.u64()?;
        let kind = r.u8()?;
        match (&mut view.state, kind, view.expr.summarize()) {
            (ViewState::Groups(groups), 0, Summarize::GroupAgg { aggs, .. }) => {
                let n = r.u64()?;
                for _ in 0..n {
                    let klen = r.u32()? as usize;
                    let mut key = Vec::with_capacity(klen);
                    for _ in 0..klen {
                        key.push(r.value()?);
                    }
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
                    groups.insert(key, accs);
                }
            }
            (ViewState::Counts(counts), 1, Summarize::Project { .. }) => {
                let n = r.u64()?;
                for _ in 0..n {
                    let row = r.tuple()?;
                    let m = r.i64()?;
                    counts.insert(row, m);
                }
            }
            _ => {
                return Err(ChronicleError::Internal(
                    "snapshot kind does not match the view's summarization".into(),
                ))
            }
        }
        if !r.at_end() {
            return Err(ChronicleError::Internal(
                "trailing bytes after snapshot".into(),
            ));
        }
        Ok(view)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_algebra::{AggFunc, AggSpec, CaExpr, DeltaBatch};
    use chronicle_store::{Catalog, Retention};
    use chronicle_types::{tuple, AttrType, Attribute, ChronicleId, Chronon, SeqNo};

    fn setup(retention: Retention) -> (Catalog, ChronicleId) {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("caller", AttrType::Int),
                Attribute::new("minutes", AttrType::Float),
            ],
            "sn",
        )
        .unwrap();
        let c = cat.create_chronicle("calls", g, cs, retention).unwrap();
        (cat, c)
    }

    fn sum_view(cat: &Catalog, c: ChronicleId) -> PersistentView {
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["caller"],
            vec![
                AggSpec::new(AggFunc::Sum(2), "total"),
                AggSpec::new(AggFunc::CountStar, "n"),
            ],
        )
        .unwrap();
        PersistentView::new(ViewId(0), "totals", expr)
    }

    fn apply_batch(
        view: &mut PersistentView,
        cat: &Catalog,
        c: ChronicleId,
        seq: u64,
        rows: Vec<Tuple>,
    ) -> WorkCounter {
        let engine = chronicle_algebra::delta::DeltaEngine::new(cat);
        let batch = DeltaBatch {
            chronicle: c,
            seq: SeqNo(seq),
            tuples: rows,
        };
        let mut w = WorkCounter::default();
        let d = engine.delta_sca(view.expr(), &batch, &mut w).unwrap();
        view.apply(&d, &mut w).unwrap();
        w
    }

    #[test]
    fn group_view_accumulates() {
        let (cat, c) = setup(Retention::None);
        let mut v = sum_view(&cat, c);
        apply_batch(&mut v, &cat, c, 1, vec![tuple![SeqNo(1), 555i64, 2.0f64]]);
        apply_batch(&mut v, &cat, c, 2, vec![tuple![SeqNo(2), 555i64, 3.0f64]]);
        apply_batch(&mut v, &cat, c, 3, vec![tuple![SeqNo(3), 777i64, 9.0f64]]);
        assert_eq!(v.len(), 2);
        let row = v.get(&[Value::Int(555)]).unwrap();
        assert_eq!(row.get(1).as_float(), Some(5.0));
        assert_eq!(row.get(2).as_int(), Some(2));
        assert_eq!(v.get_agg(&[Value::Int(777)], 0), Some(Value::Float(9.0)));
        assert_eq!(v.get(&[Value::Int(999)]), None);
        assert_eq!(v.applied_batches(), 3);
    }

    #[test]
    fn rows_are_ordered_by_key() {
        let (cat, c) = setup(Retention::None);
        let mut v = sum_view(&cat, c);
        apply_batch(&mut v, &cat, c, 1, vec![tuple![SeqNo(1), 777i64, 1.0f64]]);
        apply_batch(&mut v, &cat, c, 2, vec![tuple![SeqNo(2), 555i64, 1.0f64]]);
        let rows = v.rows();
        assert_eq!(rows[0].get(0).as_int(), Some(555));
        assert_eq!(rows[1].get(0).as_int(), Some(777));
    }

    #[test]
    fn projection_view_counts_multiplicity() {
        let (cat, c) = setup(Retention::None);
        let expr = ScaExpr::project(CaExpr::chronicle(cat.chronicle(c)), &["caller"]).unwrap();
        let mut v = PersistentView::new(ViewId(1), "callers", expr);
        apply_batch(&mut v, &cat, c, 1, vec![tuple![SeqNo(1), 555i64, 2.0f64]]);
        apply_batch(&mut v, &cat, c, 2, vec![tuple![SeqNo(2), 555i64, 3.0f64]]);
        assert_eq!(v.len(), 1, "set semantics: one distinct row");
        assert_eq!(v.multiplicity(&tuple![555i64]), Some(2));
        assert!(v.get(&[Value::Int(555)]).is_some());
        assert!(v.get(&[Value::Int(777)]).is_none());
    }

    #[test]
    fn apply_work_counts_one_probe_per_group() {
        let (cat, c) = setup(Retention::None);
        let mut v = sum_view(&cat, c);
        let w = apply_batch(
            &mut v,
            &cat,
            c,
            1,
            vec![
                tuple![SeqNo(1), 555i64, 1.0f64],
                tuple![SeqNo(1), 555i64, 2.0f64],
                tuple![SeqNo(1), 777i64, 3.0f64],
            ],
        );
        // delta_sca buckets into 2 groups -> apply performs 2 probes.
        assert_eq!(w.index_probes, 2);
    }

    #[test]
    fn bootstrap_from_stored_chronicle() {
        let (mut cat, c) = setup(Retention::All);
        cat.append(c, Chronon(1), &[tuple![SeqNo(1), 555i64, 2.0f64]])
            .unwrap();
        cat.append(c, Chronon(2), &[tuple![SeqNo(2), 555i64, 3.0f64]])
            .unwrap();
        let mut v = sum_view(&cat, c);
        v.bootstrap(&cat).unwrap();
        assert_eq!(v.get_agg(&[Value::Int(555)], 0), Some(Value::Float(5.0)));
        // Incremental continuation after bootstrap agrees with the oracle.
        cat.append(c, Chronon(3), &[tuple![SeqNo(3), 555i64, 5.0f64]])
            .unwrap();
        apply_batch(&mut v, &cat, c, 3, vec![tuple![SeqNo(3), 555i64, 5.0f64]]);
        let oracle = chronicle_algebra::eval::canon(
            chronicle_algebra::eval::eval_sca(&cat, v.expr()).unwrap(),
        );
        assert_eq!(chronicle_algebra::eval::canon(v.rows()), oracle);
    }

    #[test]
    fn bootstrap_fails_without_retention() {
        let (mut cat, c) = setup(Retention::None);
        cat.append(c, Chronon(1), &[tuple![SeqNo(1), 555i64, 2.0f64]])
            .unwrap();
        let mut v = sum_view(&cat, c);
        assert!(matches!(
            v.bootstrap(&cat).unwrap_err(),
            ChronicleError::ChronicleNotStored { .. }
        ));
    }

    #[test]
    fn snapshot_round_trip_group_view() {
        let (cat, c) = setup(Retention::None);
        let mut v = sum_view(&cat, c);
        apply_batch(&mut v, &cat, c, 1, vec![tuple![SeqNo(1), 555i64, 2.0f64]]);
        apply_batch(&mut v, &cat, c, 2, vec![tuple![SeqNo(2), 777i64, 9.0f64]]);
        let bytes = v.snapshot();
        let restored =
            PersistentView::restore(ViewId(9), "totals", v.expr().clone(), &bytes).unwrap();
        assert_eq!(restored.rows(), v.rows());
        assert_eq!(restored.applied_batches(), v.applied_batches());
        // The restored view keeps maintaining correctly.
        let mut restored = restored;
        apply_batch(
            &mut restored,
            &cat,
            c,
            3,
            vec![tuple![SeqNo(3), 555i64, 1.0f64]],
        );
        assert_eq!(
            restored.get_agg(&[Value::Int(555)], 0),
            Some(Value::Float(3.0))
        );
    }

    #[test]
    fn snapshot_round_trip_projection_view() {
        let (cat, c) = setup(Retention::None);
        let expr = ScaExpr::project(CaExpr::chronicle(cat.chronicle(c)), &["caller"]).unwrap();
        let mut v = PersistentView::new(ViewId(1), "callers", expr.clone());
        apply_batch(&mut v, &cat, c, 1, vec![tuple![SeqNo(1), 555i64, 2.0f64]]);
        apply_batch(&mut v, &cat, c, 2, vec![tuple![SeqNo(2), 555i64, 3.0f64]]);
        let bytes = v.snapshot();
        let restored = PersistentView::restore(ViewId(2), "callers", expr, &bytes).unwrap();
        assert_eq!(restored.multiplicity(&tuple![555i64]), Some(2));
    }

    #[test]
    fn snapshot_kind_mismatch_rejected() {
        let (cat, c) = setup(Retention::None);
        let group_view = sum_view(&cat, c);
        let bytes = group_view.snapshot();
        let proj_expr = ScaExpr::project(CaExpr::chronicle(cat.chronicle(c)), &["caller"]).unwrap();
        assert!(PersistentView::restore(ViewId(3), "x", proj_expr, &bytes).is_err());
        // Corrupted magic.
        let mut bad = bytes.clone();
        bad[5] = b'X';
        assert!(PersistentView::restore(ViewId(4), "x", group_view.expr().clone(), &bad).is_err());
        // Truncated.
        assert!(PersistentView::restore(
            ViewId(5),
            "x",
            group_view.expr().clone(),
            &bytes[..bytes.len() - 2]
        )
        .is_err());
    }

    #[test]
    fn mismatched_delta_kind_rejected() {
        let (cat, c) = setup(Retention::None);
        let mut v = sum_view(&cat, c);
        let bogus = SummaryDelta::Rows(chronicle_algebra::ZSet::singleton(tuple![1i64], 1));
        let mut w = WorkCounter::default();
        assert!(matches!(
            v.apply(&bogus, &mut w).unwrap_err(),
            ChronicleError::Internal(_)
        ));
        let _ = c;
    }
}
