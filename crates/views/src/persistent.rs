//! Materialized persistent views — the V of the chronicle database
//! (C, R, L, V).
//!
//! A persistent view stores *only itself* (Theorem 4.4's space bound): for a
//! group-aggregation view, an ordered map from group key to decomposed
//! accumulator states; for a projection view, an ordered map from row to
//! signed multiplicity (so set semantics survive maintenance). The
//! underlying chronicle and the chronicle-algebra intermediates are never
//! stored.
//!
//! One state serves every kind of definition ([`ViewDef`]). A chronicle
//! view (SCA) is maintained append-only — the Theorem 4.1 rules lean on
//! the new-sequence-number argument. A periodic family `V<D>` (§5.1) is a
//! chronicle view keyed by a leading `interval` column, the calendar index
//! of the interval a row belongs to. A relation view ([`RelQuery`],
//! σ/Π/γ with retractable aggregates) absorbs **signed** Z-set deltas: an
//! insert arrives as `+1`, a delete as `−1`, an update as a `−old +new`
//! pair. The definition decides the things that differ:
//!
//! * a relation view's groups carry a live-row count (and snapshot it),
//!   and a group whose count reaches zero is removed — a chronicle group
//!   can never retract, so it neither persists nor consults the count;
//! * in all, a projected row whose multiplicity reaches zero is removed;
//! * a family applies each append's delta under every calendar interval
//!   containing the append's chronon, and drops whole intervals from the
//!   front of its key order once they are past their expiry;
//! * the snapshot magic: `CHRV1` for chronicle views, `CHRF1` for periodic
//!   families, `CHRR1` for relation views.
//!
//! Under the `CHRONICLE_MUTATE=skip_consolidation` sabotage zero-count
//! entries stay *visible* through [`PersistentView::rows`], which is how
//! the differential oracle suite proves it would catch a dropped
//! zero-weight elimination.
//!
//! The ordered map (B-tree) realizes the paper's `O(t · log|V|)` apply
//! bound: one ordered-index probe per affected group/row.

use std::collections::btree_map::{BTreeMap, Entry};

use crate::calendar::Calendar;
use crate::codec::{ReaderExt as _, WriterExt as _};
use chronicle_algebra::delta::SummaryDelta;
use chronicle_algebra::eval::seq_to_int;
use chronicle_algebra::{Accumulator, AggSpec, RelQuery, ScaExpr, Summarize, WorkCounter};
use chronicle_store::Catalog;
use chronicle_types::{
    mutate, AttrType, Attribute, ChronicleError, Chronon, Result, Schema, Tuple, Value, ViewId,
};

/// What a persistent view is defined over.
#[derive(Debug, Clone)]
pub enum ViewDef {
    /// An SCA expression over chronicles, maintained append-only.
    Chronicle(ScaExpr),
    /// A periodic family `V<D>`: an SCA template over a calendar, keyed by
    /// the calendar index of each interval.
    Periodic(PeriodicDef),
    /// A σ/Π/γ query over one relation, maintained under inserts,
    /// updates and deletes.
    Relation(RelQuery),
}

/// The definition of a periodic family `V<D>` (§5.1): *"a set of views
/// V₁, …, V_k, one for each interval in the calendar D"*, held as one
/// view whose key leads with an `INT` column `interval`, the interval's
/// calendar index.
#[derive(Debug, Clone)]
pub struct PeriodicDef {
    template: ScaExpr,
    calendar: Calendar,
    expire_after: Option<i64>,
    /// `interval` followed by the template's columns.
    schema: Schema,
}

impl PeriodicDef {
    /// The family of `template` over `calendar`. With `expire_after`
    /// set, an interval is dropped by the first append to the family at
    /// or past its end plus that many ticks; `None` keeps every interval.
    /// Fails when the template already has an `interval` column, or when
    /// the calendar can index past the `INT` range.
    pub fn new(template: ScaExpr, calendar: Calendar, expire_after: Option<i64>) -> Result<Self> {
        let mut attrs = vec![Attribute::new("interval", AttrType::Int)];
        attrs.extend(template.schema().attrs().iter().cloned());
        let schema = Schema::relation(attrs)?;
        let last = match &calendar {
            Calendar::Explicit(intervals) => intervals.len() as i128 - 1,
            Calendar::Periodic {
                anchor,
                step,
                count,
                ..
            } => {
                let reach = (i64::MAX as i128 - anchor.0 as i128) / *step as i128;
                count.map_or(reach, |n| reach.min(n as i128 - 1))
            }
        };
        if last > i64::MAX as i128 {
            return Err(ChronicleError::InvalidSchema(format!(
                "calendar index {last} does not fit the INT `interval` column"
            )));
        }
        Ok(PeriodicDef {
            template,
            calendar,
            expire_after,
            schema,
        })
    }

    /// The per-interval view definition.
    pub fn template(&self) -> &ScaExpr {
        &self.template
    }

    /// The calendar `D`.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }
}

impl From<PeriodicDef> for ViewDef {
    fn from(def: PeriodicDef) -> Self {
        ViewDef::Periodic(def)
    }
}

impl From<ScaExpr> for ViewDef {
    fn from(expr: ScaExpr) -> Self {
        ViewDef::Chronicle(expr)
    }
}

impl From<RelQuery> for ViewDef {
    fn from(query: RelQuery) -> Self {
        ViewDef::Relation(query)
    }
}

impl ViewDef {
    /// The summarization step (a family's template's).
    pub fn summarize(&self) -> &Summarize {
        match self {
            ViewDef::Chronicle(expr) => expr.summarize(),
            ViewDef::Periodic(family) => family.template.summarize(),
            ViewDef::Relation(query) => query.summarize(),
        }
    }

    /// The view's (relation) schema.
    pub fn schema(&self) -> &Schema {
        match self {
            ViewDef::Chronicle(expr) => expr.schema(),
            ViewDef::Periodic(family) => &family.schema,
            ViewDef::Relation(query) => query.schema(),
        }
    }

    /// The SCA expression whose delta maintains a chronicle view: its own,
    /// or a family's template.
    pub fn expr(&self) -> Option<&ScaExpr> {
        match self {
            ViewDef::Chronicle(expr) => Some(expr),
            ViewDef::Periodic(family) => Some(&family.template),
            ViewDef::Relation(_) => None,
        }
    }

    /// A family's calendar.
    pub(crate) fn calendar(&self) -> Option<&Calendar> {
        match self {
            ViewDef::Periodic(family) => Some(&family.calendar),
            ViewDef::Chronicle(_) | ViewDef::Relation(_) => None,
        }
    }

    /// Relation views absorb retractions: their groups carry a persisted
    /// live-row count and drop out when it reaches zero.
    fn retracts(&self) -> bool {
        matches!(self, ViewDef::Relation(_))
    }

    /// Snapshot magic of this kind of view.
    fn magic(&self) -> &'static str {
        match self {
            ViewDef::Chronicle(_) => "CHRV1",
            ViewDef::Periodic(_) => "CHRF1",
            ViewDef::Relation(_) => "CHRR1",
        }
    }
}

/// The materialized state of one persistent view.
#[derive(Debug)]
pub struct PersistentView {
    id: ViewId,
    name: String,
    def: ViewDef,
    state: ViewState,
    /// Batches applied (diagnostics).
    applied_batches: u64,
}

/// One group's accumulators plus the signed count of live (filtered) base
/// rows in it. Only relation views persist and consult the count: their
/// group exists exactly while `live > 0`.
#[derive(Debug)]
struct GroupState {
    accs: Vec<Accumulator>,
    live: i64,
}

impl GroupState {
    fn new(aggs: &[AggSpec]) -> Self {
        GroupState {
            accs: aggs.iter().map(|a| Accumulator::new(a.func)).collect(),
            live: 0,
        }
    }

    fn row(&self, key: &[Value]) -> Tuple {
        let mut row = key.to_vec();
        row.extend(self.accs.iter().map(|a| seq_to_int(a.finalize())));
        Tuple::new(row)
    }
}

#[derive(Debug)]
enum ViewState {
    /// GROUPBY summarization: group key → accumulators.
    Groups(BTreeMap<Vec<Value>, GroupState>),
    /// Projection summarization: row → signed multiplicity.
    Counts(BTreeMap<Tuple, i64>),
}

impl ViewState {
    fn empty(summarize: &Summarize) -> Self {
        match summarize {
            Summarize::GroupAgg { .. } => ViewState::Groups(BTreeMap::new()),
            Summarize::Project { .. } => ViewState::Counts(BTreeMap::new()),
        }
    }

    /// Fold one base row in with weight `+1` (bootstrap).
    fn insert(&mut self, summarize: &Summarize, t: &Tuple) -> Result<()> {
        match (self, summarize) {
            (ViewState::Groups(groups), Summarize::GroupAgg { group_cols, aggs }) => {
                let key: Vec<Value> = group_cols.iter().map(|&c| t.get(c).clone()).collect();
                let gs = groups.entry(key).or_insert_with(|| GroupState::new(aggs));
                gs.live += 1;
                for acc in gs.accs.iter_mut() {
                    acc.update(t)?;
                }
            }
            (ViewState::Counts(counts), Summarize::Project { cols }) => {
                *counts.entry(t.project(cols)).or_insert(0) += 1;
            }
            _ => unreachable!("state always matches summarize"),
        }
        Ok(())
    }

    /// The leading key value of the first entry: a family's oldest
    /// materialized interval.
    fn first_interval(&self) -> Option<i64> {
        let first = match self {
            ViewState::Groups(groups) => groups.keys().next()?.first()?,
            ViewState::Counts(counts) => counts.keys().next()?.values().first()?,
        };
        first.as_int()
    }

    fn pop_first(&mut self) {
        match self {
            ViewState::Groups(groups) => {
                groups.pop_first();
            }
            ViewState::Counts(counts) => {
                counts.pop_first();
            }
        }
    }
}

/// `prefix` followed by `rest`: a family row's key under one interval.
fn prefixed(prefix: &Value, rest: &[Value]) -> Vec<Value> {
    let mut key = Vec::with_capacity(rest.len() + 1);
    key.push(prefix.clone());
    key.extend_from_slice(rest);
    key
}

impl PersistentView {
    /// Create an empty view for `def`.
    pub fn new(id: ViewId, name: impl Into<String>, def: impl Into<ViewDef>) -> Self {
        let def = def.into();
        PersistentView {
            id,
            name: name.into(),
            state: ViewState::empty(def.summarize()),
            def,
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

    /// The view's definition.
    pub fn def(&self) -> &ViewDef {
        &self.def
    }

    /// The SCA expression that maintains a chronicle view (a family's
    /// template); see [`ViewDef::expr`].
    pub fn expr(&self) -> Option<&ScaExpr> {
        self.def.expr()
    }

    /// The defining query of a relation view.
    pub fn query(&self) -> Option<&RelQuery> {
        match &self.def {
            ViewDef::Relation(query) => Some(query),
            ViewDef::Chronicle(_) | ViewDef::Periodic(_) => None,
        }
    }

    /// The view's (relation) schema.
    pub fn schema(&self) -> &Schema {
        self.def.schema()
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
    /// consolidation never perturbs the counters. A count driven below
    /// zero is an error.
    pub fn apply(&mut self, delta: &SummaryDelta, work: &mut WorkCounter) -> Result<()> {
        self.fold(delta, work, <[Value]>::to_vec, Tuple::clone)?;
        self.applied_batches += 1;
        Ok(())
    }

    /// Maintain the view for one append at chronon `t` whose summarized
    /// delta is `delta`. A plain view applies a non-empty delta. A
    /// periodic family applies it once under each calendar interval
    /// containing `t` — the delta does not depend on the interval — and
    /// then expires, from the front of its key order, every interval
    /// whose end plus the grace period is at or before `t`. The clock is
    /// the family's own: only appends routed to it advance expiry.
    pub(crate) fn maintain(
        &mut self,
        t: Chronon,
        delta: &SummaryDelta,
        work: &mut WorkCounter,
    ) -> Result<()> {
        let ViewDef::Periodic(family) = &self.def else {
            return if delta.is_empty() {
                Ok(())
            } else {
                self.apply(delta, work)
            };
        };
        if !delta.is_empty() {
            for idx in family.calendar.intervals_containing(t) {
                let at = Value::Int(idx as i64);
                self.fold(
                    delta,
                    work,
                    |key| prefixed(&at, key),
                    |row| Tuple::new(prefixed(&at, row.values())),
                )?;
            }
            self.applied_batches += 1;
        }
        self.expire(t)
    }

    /// Drop a family's oldest intervals while they are past expiry at `t`.
    fn expire(&mut self, t: Chronon) -> Result<()> {
        let PersistentView {
            def: ViewDef::Periodic(family),
            state,
            ..
        } = self
        else {
            return Ok(());
        };
        let Some(grace) = family.expire_after else {
            return Ok(());
        };
        let mut expired = None;
        while let Some(idx) = state.first_interval() {
            if expired != Some(idx) {
                match family.calendar.interval(idx as u64)? {
                    Some(iv) if iv.end.0.saturating_add(grace) <= t.0 => expired = Some(idx),
                    _ => break,
                }
            }
            state.pop_first();
        }
        Ok(())
    }

    /// Fold `delta` into the state, keying each group by `key_of` its
    /// delta key and each projected row by `row_of` itself.
    fn fold(
        &mut self,
        delta: &SummaryDelta,
        work: &mut WorkCounter,
        key_of: impl Fn(&[Value]) -> Vec<Value>,
        row_of: impl Fn(&Tuple) -> Tuple,
    ) -> Result<()> {
        let retracts = self.def.retracts();
        match (&mut self.state, delta, self.def.summarize()) {
            (
                ViewState::Groups(groups),
                SummaryDelta::Groups(batch),
                Summarize::GroupAgg { aggs, .. },
            ) => {
                for (key, members) in batch {
                    work.index_probes += 1; // one O(log|V|) group lookup
                    let mut slot = match groups.entry(key_of(key)) {
                        Entry::Occupied(slot) => slot,
                        Entry::Vacant(slot) => slot.insert_entry(GroupState::new(aggs)),
                    };
                    let gs = slot.get_mut();
                    for (t, w) in members.iter() {
                        work.tuples_in += w.unsigned_abs();
                        gs.live += w;
                        for acc in gs.accs.iter_mut() {
                            acc.update_weighted(t, w)?;
                        }
                    }
                    if retracts {
                        if gs.live < 0 {
                            return Err(ChronicleError::Internal(format!(
                                "view `{}`: group {key:?} retracted below zero rows",
                                self.name
                            )));
                        }
                        if gs.live == 0 && !mutate("skip_consolidation") {
                            slot.remove();
                        }
                    }
                }
            }
            (ViewState::Counts(counts), SummaryDelta::Rows(rows), Summarize::Project { .. }) => {
                for (row, w) in rows.iter() {
                    work.index_probes += 1;
                    work.tuples_in += w.unsigned_abs();
                    let mut slot = match counts.entry(row_of(row)) {
                        Entry::Occupied(slot) => slot,
                        Entry::Vacant(slot) => slot.insert_entry(0),
                    };
                    let m = slot.get_mut();
                    *m += w;
                    if *m < 0 {
                        return Err(ChronicleError::Internal(format!(
                            "view `{}`: row {row} retracted below zero",
                            self.name
                        )));
                    }
                    if *m == 0 && !mutate("skip_consolidation") {
                        slot.remove();
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
        Ok(())
    }

    /// Materialize the full current contents as relation rows (group keys +
    /// finalized aggregates, or distinct projected rows), in index order.
    /// Presence in the map is what makes a row visible — a zero-count
    /// residue kept by the `skip_consolidation` mutation shows up here, on
    /// purpose.
    pub fn rows(&self) -> Vec<Tuple> {
        match &self.state {
            ViewState::Groups(groups) => groups.iter().map(|(key, gs)| gs.row(key)).collect(),
            ViewState::Counts(counts) => counts.keys().cloned().collect(),
        }
    }

    /// Point lookup of one group's finalized row (the sub-second summary
    /// query of §1). `O(log |V|)`.
    pub fn get(&self, key: &[Value]) -> Option<Tuple> {
        match &self.state {
            ViewState::Groups(groups) => groups.get(key).map(|gs| gs.row(key)),
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
                .and_then(|gs| gs.accs.get(agg_index))
                .map(|a| seq_to_int(a.finalize())),
            ViewState::Counts(_) => None,
        }
    }

    /// Rebuild the state from stored data (used when a view is defined
    /// *after* data already exists — "materialized when it is initially
    /// defined", §2.1). A relation view folds in the relation's current
    /// rows, which is always possible. A chronicle view needs
    /// `Retention::All` on every base chronicle; otherwise this returns
    /// the underlying [`ChronicleError::ChronicleNotStored`]. A periodic
    /// family is left empty.
    pub fn bootstrap(&mut self, catalog: &Catalog) -> Result<()> {
        let summarize = self.def.summarize();
        self.state = ViewState::empty(summarize);
        match &self.def {
            ViewDef::Chronicle(expr) => {
                for t in &chronicle_algebra::eval::eval_ca(catalog, expr.ca())? {
                    self.state.insert(summarize, t)?;
                }
            }
            // A family starts empty even over retained history.
            ViewDef::Periodic(_) => {}
            ViewDef::Relation(query) => {
                for t in catalog.relation(query.relation()).current().iter() {
                    if query.matches(t)? {
                        self.state.insert(summarize, t)?;
                    }
                }
            }
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

    /// Serialize the materialized state (not the definition) into a
    /// self-describing byte snapshot. Persistent views are the only durable
    /// state of a chronicle system — the chronicle is not stored — so
    /// snapshot + restore is what makes restarts possible.
    pub fn snapshot(&self) -> Vec<u8> {
        let retracts = self.def.retracts();
        let mut w = crate::codec::Writer::new();
        w.str(self.def.magic());
        w.u64(self.applied_batches);
        match &self.state {
            ViewState::Groups(groups) => {
                w.u8(0);
                w.u64(groups.len() as u64);
                for (key, gs) in groups {
                    w.u32(key.len() as u32);
                    for v in key {
                        w.value(v);
                    }
                    if retracts {
                        w.i64(gs.live);
                    }
                    w.u32(gs.accs.len() as u32);
                    for acc in &gs.accs {
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
    /// fresh view over the *same* definition. Fails on magic, kind, or
    /// structural mismatch.
    pub fn restore(
        id: ViewId,
        name: impl Into<String>,
        def: impl Into<ViewDef>,
        bytes: &[u8],
    ) -> Result<PersistentView> {
        let mut view = PersistentView::new(id, name, def);
        let retracts = view.def.retracts();
        let mut r = crate::codec::Reader::new(bytes);
        let magic = r.str()?;
        if magic != view.def.magic() {
            return Err(ChronicleError::Internal(format!(
                "bad snapshot magic `{magic}`"
            )));
        }
        view.applied_batches = r.u64()?;
        let kind = r.u8()?;
        match (&mut view.state, kind, view.def.summarize()) {
            (ViewState::Groups(groups), 0, Summarize::GroupAgg { aggs, .. }) => {
                let n = r.u64()?;
                for _ in 0..n {
                    let klen = r.u32()? as usize;
                    let mut key = Vec::with_capacity(klen);
                    for _ in 0..klen {
                        key.push(r.value()?);
                    }
                    let live = if retracts { r.i64()? } else { 0 };
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
    use chronicle_algebra::{AggFunc, CaExpr, DeltaBatch, RelationRef, ZSet};
    use chronicle_store::{Catalog, Retention};
    use chronicle_types::{tuple, AttrType, Attribute, ChronicleId, Chronon, RelationId, SeqNo};

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
        let d = engine
            .delta_sca(view.expr().unwrap(), &batch, &mut w)
            .unwrap();
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
            chronicle_algebra::eval::eval_sca(&cat, v.expr().unwrap()).unwrap(),
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
            PersistentView::restore(ViewId(9), "totals", v.expr().unwrap().clone(), &bytes)
                .unwrap();
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
        assert!(
            PersistentView::restore(ViewId(4), "x", group_view.expr().unwrap().clone(), &bad)
                .is_err()
        );
        // Truncated.
        assert!(PersistentView::restore(
            ViewId(5),
            "x",
            group_view.expr().unwrap().clone(),
            &bytes[..bytes.len() - 2]
        )
        .is_err());
    }

    #[test]
    fn periodic_def_refuses_keys_it_cannot_hold() {
        let (cat, c) = setup(Retention::None);
        let template = sum_view(&cat, c).expr().unwrap().clone();
        let every = |anchor| Calendar::every(Chronon(anchor), 1).unwrap();
        assert!(PeriodicDef::new(template.clone(), every(0), None).is_ok());
        // From the chronon floor, step 1 indexes past i64::MAX.
        assert!(matches!(
            PeriodicDef::new(template, every(i64::MIN), None).unwrap_err(),
            ChronicleError::InvalidSchema(_)
        ));
        // The template's own columns cannot shadow `interval`.
        let base = CaExpr::chronicle(cat.chronicle(c));
        let renamed = ScaExpr::group_agg(
            base,
            &["caller"],
            vec![AggSpec::new(AggFunc::CountStar, "interval")],
        )
        .unwrap();
        assert!(PeriodicDef::new(renamed, every(0), None).is_err());
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

    fn rel_setup() -> (Catalog, RelationRef, RelationId) {
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

    fn rel_sum_view(rel: RelationRef) -> PersistentView {
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
        PersistentView::new(ViewId(0), "by_region", q)
    }

    fn rel_apply(view: &mut PersistentView, delta: ZSet) -> WorkCounter {
        let mut w = WorkCounter::default();
        let d = view.query().unwrap().delta(&delta, &mut w).unwrap();
        view.apply(&d, &mut w).unwrap();
        w
    }

    #[test]
    fn insert_update_delete_round_trip() {
        let (_, rel, _) = rel_setup();
        let mut v = rel_sum_view(rel);
        rel_apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], 1));
        rel_apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 1.5f64], 1));
        assert_eq!(v.get_agg(&[Value::Int(10)], 0), Some(Value::Float(2.0)));
        // UPDATE acct 2: rate 1.5 → 2.5 as a −old +new pair.
        let mut upd = ZSet::new();
        upd.insert(tuple![2i64, 10i64, 1.5f64], -1);
        upd.insert(tuple![2i64, 10i64, 2.5f64], 1);
        rel_apply(&mut v, upd);
        assert_eq!(v.get_agg(&[Value::Int(10)], 0), Some(Value::Float(3.0)));
        assert_eq!(v.get_agg(&[Value::Int(10)], 1), Some(Value::Int(2)));
        // DELETE both rows: the group itself disappears.
        rel_apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], -1));
        rel_apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 2.5f64], -1));
        assert!(v.is_empty(), "fully retracted group leaves no residue");
    }

    #[test]
    fn projection_counts_are_signed() {
        let (_, rel, _) = rel_setup();
        let q = RelQuery::project(rel, vec![], &["region"]).unwrap();
        let mut v = PersistentView::new(ViewId(1), "regions", q);
        rel_apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], 1));
        rel_apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 1.5f64], 1));
        assert_eq!(v.multiplicity(&tuple![10i64]), Some(2));
        assert_eq!(v.rows(), vec![tuple![10i64]], "set semantics");
        rel_apply(&mut v, ZSet::singleton(tuple![1i64, 10i64, 0.5f64], -1));
        assert_eq!(v.multiplicity(&tuple![10i64]), Some(1));
        rel_apply(&mut v, ZSet::singleton(tuple![2i64, 10i64, 1.5f64], -1));
        assert!(v.rows().is_empty());
    }

    #[test]
    fn over_retraction_is_loud() {
        let (_, rel, _) = rel_setup();
        let q = RelQuery::project(rel, vec![], &["acct"]).unwrap();
        let mut v = PersistentView::new(ViewId(1), "accts", q);
        let mut w = WorkCounter::default();
        let d = v
            .query()
            .unwrap()
            .delta(&ZSet::singleton(tuple![9i64, 10i64, 1.0f64], -1), &mut w)
            .unwrap();
        assert!(v.apply(&d, &mut w).is_err(), "deleting a missing row");
    }

    #[test]
    fn bootstrap_matches_incremental() {
        let (cat, rel, rid) = rel_setup();
        let mut from_scratch = rel_sum_view(rel.clone());
        from_scratch.bootstrap(&cat).unwrap();
        let mut incremental = rel_sum_view(rel);
        rel_apply(
            &mut incremental,
            ZSet::singleton(tuple![1i64, 10i64, 0.5f64], 1),
        );
        rel_apply(
            &mut incremental,
            ZSet::singleton(tuple![2i64, 10i64, 1.5f64], 1),
        );
        assert_eq!(from_scratch.rows(), incremental.rows());
        // And both agree with the stateless oracle.
        let oracle = from_scratch
            .query()
            .unwrap()
            .eval(cat.relation(rid).current())
            .unwrap();
        assert_eq!(from_scratch.rows(), oracle);
    }

    #[test]
    fn snapshot_round_trip_both_kinds() {
        let (cat, rel, _) = rel_setup();
        let mut v = rel_sum_view(rel.clone());
        v.bootstrap(&cat).unwrap();
        let restored = PersistentView::restore(
            ViewId(7),
            "by_region",
            v.query().unwrap().clone(),
            &v.snapshot(),
        )
        .unwrap();
        assert_eq!(restored.rows(), v.rows());
        // A restored view keeps retracting correctly.
        let mut restored = restored;
        rel_apply(
            &mut restored,
            ZSet::singleton(tuple![1i64, 10i64, 0.5f64], -1),
        );
        assert_eq!(restored.get_agg(&[Value::Int(10)], 1), Some(Value::Int(1)));

        let q = RelQuery::project(rel, vec![], &["region"]).unwrap();
        let mut p = PersistentView::new(ViewId(8), "regions", q);
        p.bootstrap(&cat).unwrap();
        let back = PersistentView::restore(
            ViewId(8),
            "regions",
            p.query().unwrap().clone(),
            &p.snapshot(),
        )
        .unwrap();
        assert_eq!(back.multiplicity(&tuple![10i64]), Some(2));
        // Cross-kind restore is rejected.
        assert!(
            PersistentView::restore(ViewId(9), "x", v.query().unwrap().clone(), &p.snapshot())
                .is_err()
        );
    }
}
