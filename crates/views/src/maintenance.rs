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
use chronicle_algebra::{RelQuery, ScaExpr, WorkCounter, ZSet};
use chronicle_store::{Catalog, Chunk, ChunkArena};
use chronicle_types::{
    mutate, ChronicleId, Chronon, RelationId, Result, SeqNo, Tuple, Value, ViewId,
};

use crate::periodic::PeriodicViewSet;
use crate::persistent::PersistentView;
use crate::relview::RelationView;
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
    /// Periodic sub-views maintained.
    pub periodic_maintained: usize,
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

/// Registry and driver for persistent views (plain and periodic).
#[derive(Debug, Default)]
pub struct Maintainer {
    views: BTreeMap<ViewId, PersistentView>,
    rel_views: BTreeMap<ViewId, RelationView>,
    names: BTreeMap<String, ViewId>,
    periodic: Vec<PeriodicViewSet>,
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

    /// Register a persistent view. The view starts empty; call
    /// [`Maintainer::bootstrap_view`] if the chronicle already has stored
    /// history to fold in.
    pub fn register(&mut self, name: &str, expr: ScaExpr) -> Result<ViewId> {
        if self.names.contains_key(name) {
            return Err(chronicle_types::ChronicleError::AlreadyExists {
                kind: "view",
                name: name.into(),
            });
        }
        let id = ViewId(self.next_id);
        self.next_id += 1;
        self.router.register(id, &expr);
        if let Some(plan) = kernels::plan(&expr) {
            self.plans.insert(id, plan);
        }
        self.views.insert(id, PersistentView::new(id, name, expr));
        self.names.insert(name.into(), id);
        Ok(id)
    }

    /// Register a relation-backed view. The view starts empty; call
    /// [`Maintainer::bootstrap_relation_view`] if the relation already has
    /// rows to fold in.
    pub fn register_relation_view(&mut self, name: &str, query: RelQuery) -> Result<ViewId> {
        if self.names.contains_key(name) {
            return Err(chronicle_types::ChronicleError::AlreadyExists {
                kind: "view",
                name: name.into(),
            });
        }
        let id = ViewId(self.next_id);
        self.next_id += 1;
        // Relation views never react to chronicle appends, so the append
        // router does not learn about them; routing happens by relation id
        // in on_relation_change.
        self.rel_views
            .insert(id, RelationView::new(id, name, query));
        self.names.insert(name.into(), id);
        Ok(id)
    }

    /// Materialize a relation view from the relation's current rows.
    pub fn bootstrap_relation_view(&mut self, id: ViewId, catalog: &Catalog) -> Result<()> {
        let view = self.rel_view_mut(id)?;
        let rid = view.query().relation();
        view.bootstrap(catalog.relation(rid).current())
    }

    /// Register a periodic view family `V<D>`.
    pub fn register_periodic(&mut self, set: PeriodicViewSet) -> usize {
        self.periodic.push(set);
        self.periodic.len() - 1
    }

    /// Access a periodic set by the index returned from
    /// [`Maintainer::register_periodic`].
    pub fn periodic(&self, idx: usize) -> &PeriodicViewSet {
        &self.periodic[idx]
    }

    /// Mutable periodic family access (restart/restore path).
    pub fn periodic_mut(&mut self, idx: usize) -> &mut PeriodicViewSet {
        &mut self.periodic[idx]
    }

    /// Materialize a view from fully stored chronicle history.
    pub fn bootstrap_view(&mut self, id: ViewId, catalog: &Catalog) -> Result<()> {
        self.view_mut(id)?.bootstrap(catalog)
    }

    /// Drop a view (chronicle-backed or relation-backed).
    pub fn drop_view(&mut self, name: &str) -> Result<()> {
        let id = self.view_id(name)?;
        self.router.unregister(id);
        self.views.remove(&id);
        self.rel_views.remove(&id);
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

    /// The relation-backed view with this id.
    pub fn rel_view(&self, id: ViewId) -> Result<&RelationView> {
        self.rel_views
            .get(&id)
            .ok_or_else(|| chronicle_types::ChronicleError::NotFound {
                kind: "view",
                name: id.to_string(),
            })
    }

    fn rel_view_mut(&mut self, id: ViewId) -> Result<&mut RelationView> {
        self.rel_views
            .get_mut(&id)
            .ok_or_else(|| chronicle_types::ChronicleError::NotFound {
                kind: "view",
                name: id.to_string(),
            })
    }

    /// The relation-backed view with this name.
    pub fn rel_view_by_name(&self, name: &str) -> Result<&RelationView> {
        self.rel_view(self.view_id(name)?)
    }

    /// Point lookup: one group's row of a named view (the paper's
    /// "summary query ... executed whenever a cellular phone is turned on").
    /// Works uniformly across chronicle-backed and relation-backed views.
    pub fn query(&self, name: &str, key: &[Value]) -> Result<Option<Tuple>> {
        let id = self.view_id(name)?;
        if let Some(v) = self.rel_views.get(&id) {
            return Ok(v.get(key));
        }
        Ok(self.view(id)?.get(key))
    }

    /// Full contents of a named view of either kind, in index order.
    pub fn rows_of(&self, name: &str) -> Result<Vec<Tuple>> {
        let id = self.view_id(name)?;
        if let Some(v) = self.rel_views.get(&id) {
            return Ok(v.rows());
        }
        Ok(self.view(id)?.rows())
    }

    /// Number of registered plain (chronicle-backed) views.
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Number of registered relation-backed views.
    pub fn relation_view_count(&self) -> usize {
        self.rel_views.len()
    }

    /// Iterate over registered chronicle-backed views.
    pub fn iter_views(&self) -> impl Iterator<Item = &PersistentView> {
        self.views.values()
    }

    /// Iterate over registered relation-backed views.
    pub fn iter_relation_views(&self) -> impl Iterator<Item = &RelationView> {
        self.rel_views.values()
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
                let sel: Vec<ViewId> = self.views.keys().copied().collect();
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
            let mut work = WorkCounter::default();
            let delta = match (&chunk, self.plans.get(&vid)) {
                (Some(chunk), Some(plan)) => {
                    report.vectorized_views += 1;
                    kernels::eval(plan, &batch, chunk, &mut work)?
                }
                _ => engine.delta_sca(view.expr(), &batch, &mut work)?,
            };
            let affected = delta.affected();
            if affected > 0 {
                view.apply(&delta, &mut work)?;
            }
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

        for set in &mut self.periodic {
            let mut work = WorkCounter::default();
            report.periodic_maintained += set.on_append(catalog, event, &mut work)?;
            report.total_work.absorb(work);
        }

        report.elapsed_nanos = start.elapsed().as_nanos() as u64;
        Ok(report)
    }

    /// Maintain every relation-backed view of `relation` for one signed
    /// Z-set delta (insert `+1`, delete `−1`, update `−old +new`). The
    /// same route → propagate → apply shape as [`Maintainer::on_append`];
    /// routing here is the relation-id filter.
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
        let selected: Vec<ViewId> = self
            .rel_views
            .iter()
            .filter(|(_, v)| v.query().relation() == relation)
            .map(|(&id, _)| id)
            .collect();
        report.routing = RoutingDecision {
            candidates: self.rel_views.len(),
            selected: selected.clone(),
            ..Default::default()
        };
        for vid in selected {
            let view = self.rel_views.get_mut(&vid).expect("selected from map");
            let mut work = WorkCounter::default();
            let sd = view.query().delta(delta, &mut work)?;
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
    /// Snapshot every registered view's materialized state, keyed by name.
    /// Together with the catalog DDL this is a full restart image: the
    /// chronicles themselves carry no state that maintenance needs.
    pub fn snapshot_views(&self) -> Vec<(String, Vec<u8>)> {
        self.views
            .values()
            .map(|v| (v.name().to_string(), v.snapshot()))
            .chain(
                self.rel_views
                    .values()
                    .map(|v| (v.name().to_string(), v.snapshot())),
            )
            .collect()
    }

    /// Replace a registered view's state from a snapshot (restart path).
    /// Dispatches on the registered kind: relation-backed views restore
    /// through their own codec.
    pub fn restore_view(&mut self, name: &str, bytes: &[u8]) -> Result<()> {
        let id = self.view_id(name)?;
        if let Some(old) = self.rel_views.get(&id) {
            let restored = RelationView::restore(id, name, old.query().clone(), bytes)?;
            self.rel_views.insert(id, restored);
            return Ok(());
        }
        let old = self.views.get(&id).expect("registered");
        let restored =
            crate::persistent::PersistentView::restore(id, name, old.expr().clone(), bytes)?;
        self.views.insert(id, restored);
        Ok(())
    }
}

/// Convenience: the defining expression of a registered view.
impl Maintainer {
    /// The SCA expression of a named view.
    pub fn expr_of(&self, name: &str) -> Result<&ScaExpr> {
        Ok(self.view_by_name(name)?.expr())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
