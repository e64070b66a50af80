//! The maintenance engine: on every append, route → propagate → apply.
//!
//! §3: *"Each time a transaction completes, a record for the transaction is
//! appended to the chronicle, and one or more persistent views may have to
//! be maintained. The transaction rate that can be supported by a chronicle
//! system is determined by the complexity of incremental maintenance of its
//! persistent views."*

use std::collections::BTreeMap;
use std::time::Instant;

use chronicle_algebra::delta::{DeltaBatch, DeltaEngine};
use chronicle_algebra::kernels::{self, VectorPlan};
use chronicle_algebra::{ScaExpr, WorkCounter, ZSet};
use chronicle_store::{Catalog, Chunk, ChunkArena};
use chronicle_types::{
    mutate, ChronicleId, Chronon, RelationId, Result, SeqNo, Tuple, Value, ViewId,
};

use crate::persistent::{PersistentView, ViewDef};
use crate::router::{Router, RoutingDecision};

/// One append event, as seen by the maintenance engine.
#[derive(Debug, Clone)]
pub struct AppendEvent {
    /// The chronicle that received the batch.
    pub chronicle: ChronicleId,
    /// The admitted sequence number.
    pub seq: SeqNo,
    /// The temporal instant of the batch.
    pub chronon: Chronon,
    /// The appended tuples.
    pub tuples: Vec<Tuple>,
}

impl AppendEvent {
    /// View of this event as a delta batch.
    pub fn as_batch(&self) -> DeltaBatch {
        DeltaBatch {
            chronicle: self.chronicle,
            seq: self.seq,
            tuples: self.tuples.clone(),
        }
    }
}

/// Per-view maintenance outcome for one append.
#[derive(Debug, Clone)]
pub struct ViewReport {
    /// The view.
    pub view: ViewId,
    /// Rows/groups touched (the `t` of Theorem 4.4); 0 = delta was empty.
    pub affected_rows: usize,
    /// Work spent on delta propagation + application for this view.
    pub work: WorkCounter,
}

/// The outcome of maintaining all views for one append.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceReport {
    /// Routing statistics.
    pub routing: RoutingDecision,
    /// Per maintained view.
    pub views: Vec<ViewReport>,
    /// Views maintained through the vectorized columnar kernels (the rest
    /// ran the per-tuple interpreter).
    pub vectorized_views: usize,
    /// Total work across all views.
    pub total_work: WorkCounter,
    /// Wall-clock time of the whole maintenance step, nanoseconds.
    pub elapsed_nanos: u64,
}

/// Whether the engine uses the §5.2 router or conservatively maintains
/// every registered view (the E9 ablation baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouteMode {
    /// Use the router's three filters.
    #[default]
    Routed,
    /// Skip routing; run delta propagation for every view on every append.
    ScanAll,
}

/// How append batches are propagated into views.
///
/// Both modes produce byte-identical view state and identical work
/// counters — [`BatchMode::Scalar`] exists so differential tests can pin
/// the interpreter against the kernels inside one process (the
/// `CHRONICLE_MUTATE=scalar_fallback` env hook is process-global).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// Transpose each batch into a columnar [`Chunk`] and run the
    /// vectorized kernels for every view whose shape compiled to a
    /// [`VectorPlan`]; other views fall back to the interpreter.
    #[default]
    Vectorized,
    /// Force the per-tuple interpreter for every view.
    Scalar,
}

/// Registry and driver for persistent views of every [`ViewDef`].
#[derive(Debug, Default)]
pub struct Maintainer {
    views: BTreeMap<ViewId, PersistentView>,
    names: BTreeMap<String, ViewId>,
    /// Relation → the views defined over it: relation-change routing.
    /// Chronicle views and periodic families route through `router`
    /// instead.
    by_relation: BTreeMap<RelationId, Vec<ViewId>>,
    router: Router,
    route_mode: RouteMode,
    batch_mode: BatchMode,
    plans: BTreeMap<ViewId, VectorPlan>,
    arena: ChunkArena,
    next_id: u32,
}

impl Maintainer {
    /// An empty engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Select routed vs scan-all maintenance.
    pub fn set_route_mode(&mut self, mode: RouteMode) {
        self.route_mode = mode;
    }

    /// Select vectorized vs forced-scalar batch propagation.
    pub fn set_batch_mode(&mut self, mode: BatchMode) {
        self.batch_mode = mode;
    }

    /// The active batch propagation mode.
    pub fn batch_mode(&self) -> BatchMode {
        self.batch_mode
    }

    /// Register a persistent view over a chronicle expression, a periodic
    /// family or a relation query. The view starts empty; call
    /// [`Maintainer::bootstrap_view`] if its source already has stored
    /// rows to fold in.
    pub fn register(&mut self, name: &str, def: impl Into<ViewDef>) -> Result<ViewId> {
        if self.names.contains_key(name) {
            return Err(chronicle_types::ChronicleError::AlreadyExists {
                kind: "view",
                name: name.into(),
            });
        }
        let id = ViewId(self.next_id);
        self.next_id += 1;
        let def = def.into();
        if let ViewDef::Relation(query) = &def {
            self.by_relation
                .entry(query.relation())
                .or_default()
                .push(id);
        } else if let Some(expr) = def.expr() {
            self.router.register(id, expr, def.calendar());
            if let Some(plan) = kernels::plan(expr) {
                self.plans.insert(id, plan);
            }
        }
        self.views.insert(id, PersistentView::new(id, name, def));
        self.names.insert(name.into(), id);
        Ok(id)
    }

    /// Materialize a view from stored data: fully retained chronicle
    /// history, or the relation's current rows.
    pub fn bootstrap_view(&mut self, id: ViewId, catalog: &Catalog) -> Result<()> {
        self.view_mut(id)?.bootstrap(catalog)
    }

    /// Drop a view (chronicle-backed or relation-backed).
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let id = self.view_id(name)?;
        self.router.unregister(id);
        self.views.remove(&id);
        for ids in self.by_relation.values_mut() {
            ids.retain(|&v| v != id);
        }
        self.by_relation.retain(|_, ids| !ids.is_empty());
        self.plans.remove(&id);
        self.names.remove(name);
        Ok(())
    }

    /// Resolve a view by name.
    pub fn view_id(&self, name: &str) -> Result<ViewId> {
        self.names
            .get(name)
            .copied()
            .ok_or_else(|| chronicle_types::ChronicleError::NotFound {
                kind: "view",
                name: name.into(),
            })
    }

    /// The view with this id.
    pub fn view(&self, id: ViewId) -> Result<&PersistentView> {
        self.views
            .get(&id)
            .ok_or_else(|| chronicle_types::ChronicleError::NotFound {
                kind: "view",
                name: id.to_string(),
            })
    }

    fn view_mut(&mut self, id: ViewId) -> Result<&mut PersistentView> {
        self.views
            .get_mut(&id)
            .ok_or_else(|| chronicle_types::ChronicleError::NotFound {
                kind: "view",
                name: id.to_string(),
            })
    }

    /// The view with this name.
    pub fn view_by_name(&self, name: &str) -> Result<&PersistentView> {
        self.view(self.view_id(name)?)
    }

    /// Point lookup: one group's row of a named view (the paper's
    /// "summary query ... executed whenever a cellular phone is turned on").
    pub fn query(&self, name: &str, key: &[Value]) -> Result<Option<Tuple>> {
        Ok(self.view_by_name(name)?.get(key))
    }

    /// Full contents of a named view, in index order.
    pub fn rows_of(&self, name: &str) -> Result<Vec<Tuple>> {
        Ok(self.view_by_name(name)?.rows())
    }

    /// Number of registered views of every kind.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Does any view depend on this relation?
    pub fn has_relation_views(&self, relation: RelationId) -> bool {
        self.by_relation.contains_key(&relation)
    }

    /// Iterate over registered views of every kind, in id order.
    pub fn iter_views(&self) -> impl Iterator<Item = &PersistentView> {
        self.views.values()
    }

    /// Maintain every affected view for one append. The catalog is borrowed
    /// immutably: maintenance reads relations but **never** chronicles.
    pub fn on_append(
        &mut self,
        catalog: &Catalog,
        event: &AppendEvent,
    ) -> Result<MaintenanceReport> {
        let start = Instant::now();
        let mut report = MaintenanceReport::default();
        let batch = event.as_batch();
        let engine = DeltaEngine::new(catalog);

        let selected: Vec<ViewId> = match self.route_mode {
            RouteMode::Routed => {
                let decision = self
                    .router
                    .route(event.chronicle, event.chronon, &event.tuples)?;
                let sel = decision.selected.clone();
                report.routing = decision;
                sel
            }
            RouteMode::ScanAll => {
                let sel: Vec<ViewId> = self
                    .views
                    .values()
                    .filter(|v| v.expr().is_some())
                    .map(PersistentView::id)
                    .collect();
                report.routing = RoutingDecision {
                    candidates: sel.len(),
                    selected: sel.clone(),
                    ..Default::default()
                };
                sel
            }
        };

        // Transpose the batch into a columnar chunk once, and only when it
        // has enough rows to amortize the transpose (single-row events ride
        // the interpreter, like the WAL's row framing) and at least one
        // selected view compiled to a vector plan. The arena recycles the
        // column buffers across appends.
        let vectorize = self.batch_mode == BatchMode::Vectorized
            && event.tuples.len() >= 2
            && !mutate("scalar_fallback");
        let chunk: Option<Chunk> =
            if vectorize && selected.iter().any(|vid| self.plans.contains_key(vid)) {
                Some(self.arena.build(&event.tuples))
            } else {
                None
            };

        for vid in selected {
            let view = self
                .views
                .get_mut(&vid)
                .expect("router only knows live views");
            let expr = view.expr().expect("only chronicle views are selected");
            let mut work = WorkCounter::default();
            let delta = match (&chunk, self.plans.get(&vid)) {
                (Some(chunk), Some(plan)) => {
                    report.vectorized_views += 1;
                    kernels::eval(plan, &batch, chunk, &mut work)?
                }
                _ => engine.delta_sca(expr, &batch, &mut work)?,
            };
            let affected = delta.affected();
            view.maintain(event.chronon, &delta, &mut work)?;
            report.total_work.absorb(work);
            report.views.push(ViewReport {
                view: vid,
                affected_rows: affected,
                work,
            });
        }
        if let Some(chunk) = chunk {
            self.arena.recycle(chunk);
        }

        report.elapsed_nanos = start.elapsed().as_nanos() as u64;
        Ok(report)
    }

    /// Maintain every relation-backed view of `relation` for one signed
    /// Z-set delta (insert `+1`, delete `−1`, update `−old +new`). The
    /// same route → propagate → apply shape as [`Maintainer::on_append`];
    /// routing here is the relation-id index.
    pub fn on_relation_change(
        &mut self,
        relation: RelationId,
        delta: &ZSet,
    ) -> Result<MaintenanceReport> {
        let start = Instant::now();
        let mut report = MaintenanceReport::default();
        if delta.is_empty() {
            return Ok(report);
        }
        let selected = self.by_relation.get(&relation).cloned().unwrap_or_default();
        report.routing = RoutingDecision {
            candidates: selected.len(),
            selected: selected.clone(),
            ..Default::default()
        };
        for vid in selected {
            let view = self
                .views
                .get_mut(&vid)
                .expect("index only knows live views");
            let query = view.query().expect("only relation views are indexed");
            let mut work = WorkCounter::default();
            let sd = query.delta(delta, &mut work)?;
            let affected = sd.affected();
            if affected > 0 {
                view.apply(&sd, &mut work)?;
            }
            report.total_work.absorb(work);
            report.views.push(ViewReport {
                view: vid,
                affected_rows: affected,
                work,
            });
        }
        report.elapsed_nanos = start.elapsed().as_nanos() as u64;
        Ok(report)
    }
}

impl Maintainer {
    /// Snapshot every registered view's materialized state, keyed by name:
    /// chronicle views and periodic families first, then relation views,
    /// each in id order, so
    /// checkpoint images written by earlier builds keep their bytes.
    /// Together with the catalog DDL this is a full restart image: the
    /// chronicles themselves carry no state that maintenance needs.
    pub fn snapshot_views(&self) -> Vec<(String, Vec<u8>)> {
        let (chronicle, relation): (Vec<_>, Vec<_>) =
            self.views.values().partition(|v| v.expr().is_some());
        chronicle
            .into_iter()
            .chain(relation)
            .map(|v| (v.name().to_string(), v.snapshot()))
            .collect()
    }

    /// Replace a registered view's state from a snapshot (restart path).
    pub fn restore_view(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let id = self.view_id(name)?;
        let def = self.view(id)?.def().clone();
        self.views
            .insert(id, PersistentView::restore(id, name, def, bytes)?);
        Ok(())
    }

    /// The SCA expression of a named chronicle view; a relation view is
    /// [`ChronicleError::NotFound`](chronicle_types::ChronicleError::NotFound)
    /// as a `"chronicle view"`.
    pub fn expr_of(&self, name: &str) -> Result<&ScaExpr> {
        self.view_by_name(name)?
            .expr()
            .ok_or_else(|| chronicle_types::ChronicleError::NotFound {
                kind: "chronicle view",
                name: name.into(),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Calendar, PeriodicDef};
    use chronicle_algebra::{AggFunc, AggSpec, CaExpr, CmpOp, Predicate};
    use chronicle_store::{Catalog, Retention};
    use chronicle_types::{tuple, AttrType, Attribute, Schema};

    fn setup() -> (Catalog, ChronicleId) {
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
        let c = cat
            .create_chronicle("calls", g, cs, Retention::None)
            .unwrap();
        (cat, c)
    }

    fn event(c: ChronicleId, seq: u64, at: i64, tuples: Vec<Tuple>) -> AppendEvent {
        AppendEvent {
            chronicle: c,
            seq: SeqNo(seq),
            chronon: Chronon(at),
            tuples,
        }
    }

    #[test]
    fn register_and_maintain() {
        let (mut cat, c) = setup();
        let mut m = Maintainer::new();
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "total")],
        )
        .unwrap();
        let vid = m.register("totals", expr).unwrap();

        let rows = vec![tuple![SeqNo(1), 555i64, 2.5f64]];
        cat.append(c, Chronon(1), &rows).unwrap();
        let r = m.on_append(&cat, &event(c, 1, 1, rows)).unwrap();
        assert_eq!(r.views.len(), 1);
        assert_eq!(r.views[0].affected_rows, 1);
        assert_eq!(
            m.view(vid).unwrap().get_agg(&[Value::Int(555)], 0),
            Some(Value::Float(2.5))
        );
        assert_eq!(
            m.query("totals", &[Value::Int(555)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Float(2.5)
        );
    }

    #[test]
    fn duplicate_view_name_rejected() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        let mk = || {
            ScaExpr::group_agg(
                CaExpr::chronicle(cat.chronicle(c)),
                &["caller"],
                vec![AggSpec::new(AggFunc::CountStar, "n")],
            )
            .unwrap()
        };
        m.register("v", mk()).unwrap();
        assert!(m.register("v", mk()).is_err());
    }

    #[test]
    fn drop_view_stops_maintenance() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["caller"],
            vec![AggSpec::new(AggFunc::CountStar, "n")],
        )
        .unwrap();
        m.register("v", expr).unwrap();
        m.drop_view("v").unwrap();
        assert_eq!(m.view_count(), 0);
        let r = m
            .on_append(&cat, &event(c, 1, 1, vec![tuple![SeqNo(1), 1i64, 1.0f64]]))
            .unwrap();
        assert!(r.views.is_empty());
        assert!(m.query("v", &[Value::Int(1)]).is_err());
    }

    #[test]
    fn guarded_view_skipped_and_unaffected() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        let base = CaExpr::chronicle(cat.chronicle(c));
        let p = Predicate::attr_cmp_const(base.schema(), "minutes", CmpOp::Gt, Value::Float(60.0))
            .unwrap();
        let expr = ScaExpr::group_agg(
            base.select(p).unwrap(),
            &["caller"],
            vec![AggSpec::new(AggFunc::CountStar, "long_calls")],
        )
        .unwrap();
        m.register("long", expr).unwrap();
        let r = m
            .on_append(&cat, &event(c, 1, 1, vec![tuple![SeqNo(1), 1i64, 2.0f64]]))
            .unwrap();
        assert_eq!(r.routing.skipped_guard, 1);
        assert!(r.views.is_empty());
    }

    #[test]
    fn scan_all_mode_bypasses_router() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        let base = CaExpr::chronicle(cat.chronicle(c));
        let p = Predicate::attr_cmp_const(base.schema(), "minutes", CmpOp::Gt, Value::Float(60.0))
            .unwrap();
        let expr = ScaExpr::group_agg(
            base.select(p).unwrap(),
            &["caller"],
            vec![AggSpec::new(AggFunc::CountStar, "long_calls")],
        )
        .unwrap();
        m.register("long", expr).unwrap();
        m.set_route_mode(RouteMode::ScanAll);
        let r = m
            .on_append(&cat, &event(c, 1, 1, vec![tuple![SeqNo(1), 1i64, 2.0f64]]))
            .unwrap();
        // The view ran (and found an empty delta) instead of being skipped.
        assert_eq!(r.views.len(), 1);
        assert_eq!(r.views[0].affected_rows, 0);
    }

    #[test]
    fn vectorized_and_scalar_maintenance_are_byte_identical() {
        let mk = |mode: BatchMode| {
            let (mut cat, c) = setup();
            let mut m = Maintainer::new();
            m.set_batch_mode(mode);
            let base = CaExpr::chronicle(cat.chronicle(c));
            let p =
                Predicate::attr_cmp_const(base.schema(), "minutes", CmpOp::Gt, Value::Float(1.0))
                    .unwrap();
            let expr = ScaExpr::group_agg(
                base.select(p).unwrap(),
                &["caller"],
                vec![
                    AggSpec::new(AggFunc::CountStar, "n"),
                    AggSpec::new(AggFunc::Sum(2), "total"),
                ],
            )
            .unwrap();
            m.register("totals", expr).unwrap();
            let mut reports = Vec::new();
            for s in 1..=8u64 {
                let rows: Vec<Tuple> = (0..16)
                    .map(|i| tuple![SeqNo(s), (i % 3) as i64, (s as f64) + i as f64 / 4.0])
                    .collect();
                cat.append(c, Chronon(s as i64), &rows).unwrap();
                reports.push(m.on_append(&cat, &event(c, s, s as i64, rows)).unwrap());
            }
            (m.snapshot_views(), reports)
        };
        let (vec_snap, vec_reports) = mk(BatchMode::Vectorized);
        let (sca_snap, sca_reports) = mk(BatchMode::Scalar);
        assert_eq!(vec_snap, sca_snap, "view state must be byte-identical");
        assert!(vec_reports.iter().all(|r| r.vectorized_views == 1));
        assert!(sca_reports.iter().all(|r| r.vectorized_views == 0));
        for (v, s) in vec_reports.iter().zip(&sca_reports) {
            assert_eq!(v.total_work, s.total_work, "work charges must match");
        }
    }

    #[test]
    fn multiple_views_one_append() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        for i in 0..5 {
            let expr = ScaExpr::group_agg(
                CaExpr::chronicle(cat.chronicle(c)),
                &["caller"],
                vec![AggSpec::new(AggFunc::Sum(2), "total")],
            )
            .unwrap();
            m.register(&format!("v{i}"), expr).unwrap();
        }
        let r = m
            .on_append(&cat, &event(c, 1, 1, vec![tuple![SeqNo(1), 9i64, 1.0f64]]))
            .unwrap();
        assert_eq!(r.views.len(), 5);
        assert!(r.total_work.total() > 0);
        assert_eq!(m.view_count(), 5);
        assert_eq!(m.iter_views().count(), 5);
    }

    fn family(cat: &Catalog, c: ChronicleId, calendar: Calendar, expire: Option<i64>) -> ViewDef {
        let base = CaExpr::chronicle(cat.chronicle(c));
        let template = ScaExpr::group_agg(
            base,
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "total")],
        )
        .unwrap();
        PeriodicDef::new(template, calendar, expire).unwrap().into()
    }

    #[test]
    fn family_applies_one_delta_under_each_containing_interval() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        m.register(
            "monthly",
            family(&cat, c, Calendar::every(Chronon(0), 30).unwrap(), None),
        )
        .unwrap();
        // Windows of 3 ticks stepping 1: chronon 5 lies in windows 3, 4, 5.
        m.register(
            "win",
            family(&cat, c, Calendar::sliding(Chronon(0), 3, 1).unwrap(), None),
        )
        .unwrap();
        for (seq, at, minutes) in [(1, 5, 10.0), (2, 25, 5.0), (3, 35, 2.0)] {
            let r = m
                .on_append(
                    &cat,
                    &event(c, seq, at, vec![tuple![SeqNo(seq), 7i64, minutes]]),
                )
                .unwrap();
            assert_eq!(r.views.len(), 2);
        }
        assert_eq!(
            m.rows_of("monthly").unwrap(),
            vec![tuple![0i64, 7i64, 15.0f64], tuple![1i64, 7i64, 2.0f64]]
        );
        let windows: Vec<Value> = m
            .rows_of("win")
            .unwrap()
            .iter()
            .map(|r| r.get(0).clone())
            .collect();
        let want: Vec<Value> = [3, 4, 5, 23, 24, 25, 33, 34, 35]
            .into_iter()
            .map(Value::Int)
            .collect();
        assert_eq!(windows, want);

        // The delta is computed once: over three windows the family costs
        // the one-interval family's delta work plus two more applies.
        let work = |cal: Calendar| {
            let mut m = Maintainer::new();
            m.register("f", family(&cat, c, cal, None)).unwrap();
            let r = m
                .on_append(&cat, &event(c, 1, 5, vec![tuple![SeqNo(1), 7i64, 1.0f64]]))
                .unwrap();
            r.total_work
        };
        let one = work(Calendar::every(Chronon(0), 30).unwrap());
        let three = work(Calendar::sliding(Chronon(0), 3, 1).unwrap());
        assert_eq!(three.index_probes, 3);
        assert_eq!(three.tuples_out, one.tuples_out);
        assert_eq!(three.tuples_in - one.tuples_in, 2);
    }

    #[test]
    fn family_in_a_calendar_gap_is_skipped_before_delta_work() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        // Width 5, step 10: chronons 5..9 fall between intervals 0 and 1.
        let gapped = Calendar::periodic(Chronon(0), 5, 10, None).unwrap();
        m.register("sampled", family(&cat, c, gapped, None))
            .unwrap();
        let r = m
            .on_append(&cat, &event(c, 1, 7, vec![tuple![SeqNo(1), 7i64, 1.0f64]]))
            .unwrap();
        assert_eq!(r.routing.candidates, 1);
        assert_eq!(r.routing.skipped_interval, 1);
        assert!(r.views.is_empty());
        assert_eq!(r.total_work.total(), 0);
        assert!(m.rows_of("sampled").unwrap().is_empty());
        let r = m
            .on_append(&cat, &event(c, 2, 12, vec![tuple![SeqNo(2), 7i64, 1.0f64]]))
            .unwrap();
        assert_eq!(r.routing.selected.len(), 1);
        assert_eq!(
            m.rows_of("sampled").unwrap(),
            vec![tuple![1i64, 7i64, 1.0f64]]
        );
    }

    #[test]
    fn guarded_family_is_skipped_by_the_guard_filter() {
        let (cat, c) = setup();
        let base = CaExpr::chronicle(cat.chronicle(c));
        let p = Predicate::attr_cmp_const(base.schema(), "minutes", CmpOp::Gt, Value::Float(60.0))
            .unwrap();
        let template = ScaExpr::group_agg(
            base.select(p).unwrap(),
            &["caller"],
            vec![AggSpec::new(AggFunc::CountStar, "long_calls")],
        )
        .unwrap();
        let mut m = Maintainer::new();
        let cal = Calendar::every(Chronon(0), 30).unwrap();
        m.register("long", PeriodicDef::new(template, cal, None).unwrap())
            .unwrap();
        let r = m
            .on_append(&cat, &event(c, 1, 1, vec![tuple![SeqNo(1), 1i64, 2.0f64]]))
            .unwrap();
        assert_eq!(r.routing.skipped_guard, 1);
        assert!(r.views.is_empty());
        assert_eq!(r.total_work.total(), 0);
        assert!(
            m.rows_of("long").unwrap().is_empty(),
            "no interval materialised"
        );
    }

    #[test]
    fn family_expires_whole_intervals_from_the_front() {
        let (cat, c) = setup();
        let mut m = Maintainer::new();
        let cal = Calendar::every(Chronon(0), 10).unwrap();
        m.register("m", family(&cat, c, cal, Some(20))).unwrap();
        for i in 0..6u64 {
            let rows = vec![
                tuple![SeqNo(i + 1), 7i64, 1.0f64],
                tuple![SeqNo(i + 1), 8i64, 1.0f64],
            ];
            m.on_append(&cat, &event(c, i + 1, (i * 10) as i64 + 1, rows))
                .unwrap();
        }
        // At t = 51 the intervals ending at 10, 20 and 30 are 20 ticks
        // past their end; 3 and 4 are closed but kept, 5 is current.
        let intervals: Vec<Value> = m
            .rows_of("m")
            .unwrap()
            .iter()
            .map(|r| r.get(0).clone())
            .collect();
        let want: Vec<Value> = [3, 3, 4, 4, 5, 5].into_iter().map(Value::Int).collect();
        assert_eq!(intervals, want);
        assert_eq!(
            m.query("m", &[Value::Int(4), Value::Int(8)]).unwrap(),
            Some(tuple![4i64, 8i64, 1.0f64])
        );
    }

    #[test]
    fn relation_views_route_by_relation_index() {
        use chronicle_algebra::{RelQuery, RelationRef};
        let (mut cat, c) = setup();
        let rs = Schema::relation_with_key(
            vec![
                Attribute::new("acct", AttrType::Int),
                Attribute::new("region", AttrType::Int),
            ],
            &["acct"],
        )
        .unwrap();
        let a = cat.create_relation("a", rs.clone()).unwrap();
        let b = cat.create_relation("b", rs.clone()).unwrap();
        let count_by_region = |rid, name: &str| {
            RelQuery::group_agg(
                RelationRef::new(rid, rs.clone(), name),
                vec![],
                &["region"],
                vec![AggSpec::new(AggFunc::CountStar, "n")],
            )
            .unwrap()
        };
        let mut m = Maintainer::new();
        let on_a = m.register("on_a", count_by_region(a, "a")).unwrap();
        m.register("on_b", count_by_region(b, "b")).unwrap();
        m.register(
            "calls_n",
            ScaExpr::group_agg(
                CaExpr::chronicle(cat.chronicle(c)),
                &["caller"],
                vec![AggSpec::new(AggFunc::CountStar, "n")],
            )
            .unwrap(),
        )
        .unwrap();
        assert!(m.has_relation_views(a) && m.has_relation_views(b));
        assert!(matches!(
            m.expr_of("on_a").unwrap_err(),
            chronicle_types::ChronicleError::NotFound { .. }
        ));

        // A change to `a` reaches exactly the view over `a`.
        let r = m
            .on_relation_change(a, &ZSet::singleton(tuple![1i64, 10i64], 1))
            .unwrap();
        assert_eq!(r.routing.selected, vec![on_a]);
        assert_eq!(m.rows_of("on_a").unwrap(), vec![tuple![10i64, 1i64]]);
        assert!(m.rows_of("on_b").unwrap().is_empty());

        // Scan-all append maintenance never selects relation views.
        m.set_route_mode(RouteMode::ScanAll);
        let r = m
            .on_append(&cat, &event(c, 1, 1, vec![tuple![SeqNo(1), 1i64, 1.0f64]]))
            .unwrap();
        assert_eq!(r.views.len(), 1);

        // Dropping the only view over `b` takes `b` out of the index.
        m.drop_view("on_b").unwrap();
        assert!(!m.has_relation_views(b));
        let r = m
            .on_relation_change(b, &ZSet::singleton(tuple![1i64, 10i64], 1))
            .unwrap();
        assert!(r.views.is_empty());
    }
}
