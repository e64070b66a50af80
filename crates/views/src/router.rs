//! Affected-view identification (§5.2).
//!
//! *"When multiple views are to be maintained over the same chronicle, each
//! update to the chronicle would require checking all the views ... We need
//! to filter these out early so as not to waste computation resources."*
//!
//! The router applies three sound filters, cheapest first:
//!
//! 1. **dependency filter** — only views whose expression references the
//!    appended chronicle are candidates (a hash lookup),
//! 2. **active-interval filter** — a periodic family is skipped when no
//!    interval of its calendar contains the batch chronon,
//! 3. **guard-predicate filter** — if the view's expression applies
//!    selections directly above each base occurrence, and no batch tuple
//!    satisfies any occurrence's guard, every base delta is empty and the
//!    view is untouched (this is the "query independent of update" test of
//!    [LS93] specialized to appends).

use std::collections::HashMap;

use chronicle_algebra::{Predicate, ScaExpr};
use chronicle_types::{ChronicleId, Chronon, Result, Tuple, ViewId};

use crate::calendar::Calendar;

/// Routing metadata for one registered view.
#[derive(Debug)]
struct ViewEntry {
    /// Guards per base occurrence, bucketed by chronicle: the view is
    /// affected by an append to chronicle `c` iff some tuple satisfies some
    /// occurrence guard of `c` (an empty guard conjunction always passes).
    guards: HashMap<ChronicleId, Vec<Vec<Predicate>>>,
    /// A periodic family's calendar: the family only cares about batches
    /// whose chronon lies in one of its intervals.
    calendar: Option<Calendar>,
}

/// Statistics from routing one append.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoutingDecision {
    /// Views depending on the appended chronicle.
    pub candidates: usize,
    /// Candidates skipped because no interval of their calendar contained
    /// the batch chronon.
    pub skipped_interval: usize,
    /// Candidates skipped because no tuple satisfied any guard.
    pub skipped_guard: usize,
    /// Views that must be maintained.
    pub selected: Vec<ViewId>,
}

/// The affected-view router.
#[derive(Debug, Default)]
pub struct Router {
    by_chronicle: HashMap<ChronicleId, Vec<ViewId>>,
    entries: HashMap<ViewId, ViewEntry>,
}

impl Router {
    /// An empty router.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a view's dependency and guard structure, and a periodic
    /// family's calendar.
    ///
    /// Re-registering an id replaces its routes wholesale: the old
    /// expression's chronicle dependencies are dropped first, so a view
    /// redefined over different chronicles stops routing (and being
    /// maintained) on chronicles it no longer references.
    pub fn register(&mut self, id: ViewId, expr: &ScaExpr, calendar: Option<&Calendar>) {
        self.unregister(id);
        let mut guards: HashMap<ChronicleId, Vec<Vec<Predicate>>> = HashMap::new();
        for (chron, preds) in expr.ca().base_guards() {
            guards.entry(chron).or_default().push(preds);
        }
        for &chron in guards.keys() {
            let views = self.by_chronicle.entry(chron).or_default();
            if !views.contains(&id) {
                views.push(id);
            }
        }
        self.entries.insert(
            id,
            ViewEntry {
                guards,
                calendar: calendar.cloned(),
            },
        );
    }

    /// Remove a view.
    pub fn unregister(&mut self, id: ViewId) {
        if let Some(entry) = self.entries.remove(&id) {
            for chron in entry.guards.keys() {
                if let Some(v) = self.by_chronicle.get_mut(chron) {
                    v.retain(|&x| x != id);
                }
            }
        }
    }

    /// Number of registered views.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no views are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Route one append: which views must be maintained?
    pub fn route(
        &self,
        chronicle: ChronicleId,
        chronon: Chronon,
        tuples: &[Tuple],
    ) -> Result<RoutingDecision> {
        let mut decision = RoutingDecision::default();
        let Some(candidates) = self.by_chronicle.get(&chronicle) else {
            return Ok(decision);
        };
        decision.candidates = candidates.len();
        'views: for &vid in candidates {
            let entry = &self.entries[&vid];
            if let Some(calendar) = &entry.calendar {
                if calendar.intervals_containing(chronon).is_empty() {
                    decision.skipped_interval += 1;
                    continue;
                }
            }
            let occurrence_guards = entry.guards.get(&chronicle).expect("registered dependency");
            for guard in occurrence_guards {
                if guard.is_empty() {
                    decision.selected.push(vid);
                    continue 'views;
                }
                for t in tuples {
                    let mut all = true;
                    for p in guard {
                        if !p.eval(t)? {
                            all = false;
                            break;
                        }
                    }
                    if all {
                        decision.selected.push(vid);
                        continue 'views;
                    }
                }
            }
            decision.skipped_guard += 1;
        }
        Ok(decision)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calendar::Interval;
    use chronicle_algebra::{AggFunc, AggSpec, CaExpr, CmpOp};
    use chronicle_store::{Catalog, Retention};
    use chronicle_types::{tuple, AttrType, Attribute, Schema, SeqNo, Value};

    fn setup() -> (Catalog, ChronicleId, ChronicleId) {
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
        let calls = cat
            .create_chronicle("calls", g, cs.clone(), Retention::None)
            .unwrap();
        let texts = cat
            .create_chronicle("texts", g, cs, Retention::None)
            .unwrap();
        (cat, calls, texts)
    }

    fn sum_view(cat: &Catalog, c: ChronicleId) -> ScaExpr {
        ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "total")],
        )
        .unwrap()
    }

    fn guarded_view(cat: &Catalog, c: ChronicleId, min_minutes: f64) -> ScaExpr {
        let base = CaExpr::chronicle(cat.chronicle(c));
        let p = Predicate::attr_cmp_const(
            base.schema(),
            "minutes",
            CmpOp::Gt,
            Value::Float(min_minutes),
        )
        .unwrap();
        ScaExpr::group_agg(
            base.select(p).unwrap(),
            &["caller"],
            vec![AggSpec::new(AggFunc::CountStar, "n")],
        )
        .unwrap()
    }

    #[test]
    fn dependency_filter() {
        let (cat, calls, texts) = setup();
        let mut r = Router::new();
        r.register(ViewId(0), &sum_view(&cat, calls), None);
        r.register(ViewId(1), &sum_view(&cat, texts), None);
        let batch = vec![tuple![SeqNo(1), 555i64, 2.0f64]];
        let d = r.route(calls, Chronon(0), &batch).unwrap();
        assert_eq!(d.selected, vec![ViewId(0)]);
        assert_eq!(d.candidates, 1);
        let d = r.route(texts, Chronon(0), &batch).unwrap();
        assert_eq!(d.selected, vec![ViewId(1)]);
    }

    #[test]
    fn guard_filter_skips_unaffected() {
        let (cat, calls, _) = setup();
        let mut r = Router::new();
        r.register(ViewId(0), &guarded_view(&cat, calls, 100.0), None);
        r.register(ViewId(1), &sum_view(&cat, calls), None);
        let short_call = vec![tuple![SeqNo(1), 555i64, 2.0f64]];
        let d = r.route(calls, Chronon(0), &short_call).unwrap();
        assert_eq!(d.selected, vec![ViewId(1)]);
        assert_eq!(d.skipped_guard, 1);
        let long_call = vec![tuple![SeqNo(2), 555i64, 200.0f64]];
        let d = r.route(calls, Chronon(0), &long_call).unwrap();
        assert_eq!(d.selected.len(), 2);
    }

    #[test]
    fn guard_passes_if_any_tuple_matches() {
        let (cat, calls, _) = setup();
        let mut r = Router::new();
        r.register(ViewId(0), &guarded_view(&cat, calls, 100.0), None);
        let mixed = vec![
            tuple![SeqNo(1), 555i64, 2.0f64],
            tuple![SeqNo(1), 777i64, 150.0f64],
        ];
        let d = r.route(calls, Chronon(0), &mixed).unwrap();
        assert_eq!(d.selected, vec![ViewId(0)]);
    }

    #[test]
    fn interval_filter() {
        let (cat, calls, _) = setup();
        let mut r = Router::new();
        let single = Calendar::single(Interval::new(Chronon(10), Chronon(20)).unwrap());
        r.register(ViewId(0), &sum_view(&cat, calls), Some(&single));
        let batch = vec![tuple![SeqNo(1), 555i64, 2.0f64]];
        let d = r.route(calls, Chronon(5), &batch).unwrap();
        assert!(d.selected.is_empty());
        assert_eq!(d.skipped_interval, 1);
        let d = r.route(calls, Chronon(15), &batch).unwrap();
        assert_eq!(d.selected, vec![ViewId(0)]);
        // Re-registering without a calendar restores unconditional routing.
        r.register(ViewId(0), &sum_view(&cat, calls), None);
        let d = r.route(calls, Chronon(5), &batch).unwrap();
        assert_eq!(d.selected, vec![ViewId(0)]);
    }

    #[test]
    fn unregister_removes_view() {
        let (cat, calls, _) = setup();
        let mut r = Router::new();
        r.register(ViewId(0), &sum_view(&cat, calls), None);
        assert_eq!(r.len(), 1);
        r.unregister(ViewId(0));
        assert!(r.is_empty());
        let d = r
            .route(calls, Chronon(0), &[tuple![SeqNo(1), 1i64, 1.0f64]])
            .unwrap();
        assert!(d.selected.is_empty());
    }

    #[test]
    fn re_register_drops_stale_chronicle_routes() {
        // Regression: `register` used to overwrite the `entries` slot but
        // leave the view's old chronicle ids in `by_chronicle`, so a view
        // redefined over `texts` kept routing on `calls` — and `route` then
        // panicked looking up guards for a dependency the new expression
        // no longer has.
        let (cat, calls, texts) = setup();
        let mut r = Router::new();
        r.register(ViewId(0), &sum_view(&cat, calls), None);
        r.register(ViewId(0), &sum_view(&cat, texts), None);
        assert_eq!(r.len(), 1);
        let batch = vec![tuple![SeqNo(1), 555i64, 2.0f64]];
        let d = r.route(calls, Chronon(0), &batch).unwrap();
        assert!(d.selected.is_empty(), "stale route on old chronicle");
        assert_eq!(d.candidates, 0);
        let d = r.route(texts, Chronon(0), &batch).unwrap();
        assert_eq!(d.selected, vec![ViewId(0)]);
    }

    #[test]
    fn union_view_routes_from_both_chronicles() {
        let (cat, calls, texts) = setup();
        let u = CaExpr::chronicle(cat.chronicle(calls))
            .union(CaExpr::chronicle(cat.chronicle(texts)))
            .unwrap();
        let expr = ScaExpr::group_agg(u, &["caller"], vec![AggSpec::new(AggFunc::CountStar, "n")])
            .unwrap();
        let mut r = Router::new();
        r.register(ViewId(0), &expr, None);
        let batch = vec![tuple![SeqNo(1), 555i64, 2.0f64]];
        assert_eq!(
            r.route(calls, Chronon(0), &batch).unwrap().selected.len(),
            1
        );
        assert_eq!(
            r.route(texts, Chronon(0), &batch).unwrap().selected.len(),
            1
        );
    }

    #[test]
    fn stacked_selects_form_conjunctive_guard() {
        let (cat, calls, _) = setup();
        let base = CaExpr::chronicle(cat.chronicle(calls));
        let p1 = Predicate::attr_cmp_const(base.schema(), "minutes", CmpOp::Gt, Value::Float(5.0))
            .unwrap();
        let p2 =
            Predicate::attr_cmp_const(base.schema(), "caller", CmpOp::Eq, Value::Int(555)).unwrap();
        let expr = ScaExpr::group_agg(
            base.select(p1).unwrap().select(p2).unwrap(),
            &["caller"],
            vec![AggSpec::new(AggFunc::CountStar, "n")],
        )
        .unwrap();
        let mut r = Router::new();
        r.register(ViewId(0), &expr, None);
        // Satisfies p2 but not p1 -> skipped.
        let d = r
            .route(calls, Chronon(0), &[tuple![SeqNo(1), 555i64, 1.0f64]])
            .unwrap();
        assert_eq!(d.skipped_guard, 1);
        // Satisfies both -> selected.
        let d = r
            .route(calls, Chronon(0), &[tuple![SeqNo(1), 555i64, 10.0f64]])
            .unwrap();
        assert_eq!(d.selected.len(), 1);
    }
}
