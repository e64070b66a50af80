//! Periodic persistent views — the `V<D>` construct of §5.1.
//!
//! *"Given a view V in summary algebra, and a calendar D, `V<D>` specifies a
//! set of views V₁, …, V_k, one for each interval in the calendar D."*
//!
//! The implementation applies the paper's two optimizations:
//!
//! * a view is **activated** lazily when its interval starts receiving data
//!   and **retired** as soon as the chronicle clock passes its interval end
//!   ("starting to maintain a view as soon as its time interval starts, and
//!   stopping its maintenance as soon as its interval ends"), and
//! * retired views **expire** after a configurable grace period, allowing
//!   an infinite calendar to run in bounded space ("Expiration dates allow
//!   the system to implement an infinite number of periodic views, provided
//!   only a finite number of them are current at any one instant").

use std::collections::BTreeMap;

use chronicle_algebra::delta::DeltaEngine;
use chronicle_algebra::{ScaExpr, WorkCounter};
use chronicle_store::Catalog;
use chronicle_types::{ChronicleError, Result, Value, ViewId};

use crate::calendar::{Calendar, Interval};
use crate::maintenance::AppendEvent;
use crate::persistent::PersistentView;

/// One interval's materialized view.
#[derive(Debug)]
pub struct IntervalViewState {
    /// The interval this view covers.
    pub interval: Interval,
    /// The materialized contents.
    pub view: PersistentView,
}

/// A periodic view family.
#[derive(Debug)]
pub struct PeriodicViewSet {
    name: String,
    template: ScaExpr,
    calendar: Calendar,
    /// Ticks after interval end at which a closed view is dropped
    /// (`None` = keep forever).
    expire_after: Option<i64>,
    /// Views whose interval may still receive data.
    live: BTreeMap<u64, IntervalViewState>,
    /// Completed views awaiting queries/expiry.
    closed: BTreeMap<u64, IntervalViewState>,
    /// First calendar index not yet checked for retirement.
    retire_cursor: u64,
    expired: u64,
}

impl PeriodicViewSet {
    /// Create a family from a view template and a calendar.
    pub fn new(
        name: impl Into<String>,
        template: ScaExpr,
        calendar: Calendar,
        expire_after: Option<i64>,
    ) -> Self {
        PeriodicViewSet {
            name: name.into(),
            template,
            calendar,
            expire_after,
            live: BTreeMap::new(),
            closed: BTreeMap::new(),
            retire_cursor: 0,
            expired: 0,
        }
    }

    /// Family name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The calendar.
    pub fn calendar(&self) -> &Calendar {
        &self.calendar
    }

    /// Maintain the family for one append. Returns the number of interval
    /// views that received the delta. Also advances retirement/expiry based
    /// on the batch chronon (the chronicle's clock only moves on appends).
    pub fn on_append(
        &mut self,
        catalog: &Catalog,
        event: &AppendEvent,
        work: &mut WorkCounter,
    ) -> Result<usize> {
        let t = event.chronon;
        // The template must depend on the appended chronicle at all.
        if !self
            .template
            .ca()
            .base_chronicles()
            .contains(&event.chronicle)
        {
            self.retire_and_expire(t);
            return Ok(0);
        }
        let engine = DeltaEngine::new(catalog);
        let batch = event.as_batch();
        let mut maintained = 0;
        for idx in self.calendar.intervals_containing(t) {
            let interval = self
                .calendar
                .interval(idx)?
                .expect("containing interval exists");
            let entry = self.live.entry(idx).or_insert_with(|| IntervalViewState {
                interval,
                view: PersistentView::new(
                    ViewId(idx as u32),
                    format!("{}[{}]", self.name, idx),
                    self.template.clone(),
                ),
            });
            let delta = engine.delta_sca(&self.template, &batch, work)?;
            if !delta.is_empty() {
                entry.view.apply(&delta, work)?;
            }
            maintained += 1;
        }
        self.retire_and_expire(t);
        Ok(maintained)
    }

    fn retire_and_expire(&mut self, now: chronicle_types::Chronon) {
        for idx in self.calendar.ended_before(now, self.retire_cursor) {
            if let Some(state) = self.live.remove(&idx) {
                self.closed.insert(idx, state);
            }
            self.retire_cursor = self.retire_cursor.max(idx + 1);
        }
        if let Some(grace) = self.expire_after {
            let expired: Vec<u64> = self
                .closed
                .iter()
                .filter(|(_, s)| s.interval.end.plus(grace) <= now)
                .map(|(&i, _)| i)
                .collect();
            for idx in expired {
                self.closed.remove(&idx);
                self.expired += 1;
            }
        }
    }

    /// The live (still maintainable) interval views.
    pub fn live_views(&self) -> impl Iterator<Item = (&u64, &IntervalViewState)> {
        self.live.iter()
    }

    /// The closed (completed, unexpired) interval views.
    pub fn closed_views(&self) -> impl Iterator<Item = (&u64, &IntervalViewState)> {
        self.closed.iter()
    }

    /// The view for calendar interval `idx`, live or closed.
    pub fn result(&self, idx: u64) -> Option<&IntervalViewState> {
        self.live.get(&idx).or_else(|| self.closed.get(&idx))
    }

    /// Point query against interval `idx`.
    pub fn query(&self, idx: u64, key: &[Value]) -> Option<chronicle_types::Tuple> {
        self.result(idx).and_then(|s| s.view.get(key))
    }

    /// Counts: (live, closed, expired).
    pub fn counts(&self) -> (usize, usize, u64) {
        (self.live.len(), self.closed.len(), self.expired)
    }

    /// Serialize the family's materialized state: the retirement cursor,
    /// the expiry counter, and every live/closed interval view's snapshot.
    /// The template and calendar are *not* included — they are rebuilt by
    /// replaying the defining DDL on recovery.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = crate::codec::Writer::new();
        w.str("CHRP1");
        w.u64(self.retire_cursor);
        w.u64(self.expired);
        for set in [&self.live, &self.closed] {
            w.u32(set.len() as u32);
            for (idx, state) in set {
                w.u64(*idx);
                w.bytes(&state.view.snapshot());
            }
        }
        w.into_bytes()
    }

    /// Restore from [`PeriodicViewSet::snapshot`] bytes taken on an
    /// identically defined family (same template and calendar).
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let mut r = crate::codec::Reader::new(bytes);
        if r.str()? != "CHRP1" {
            return Err(ChronicleError::Internal(
                "not a periodic-view snapshot".into(),
            ));
        }
        let retire_cursor = r.u64()?;
        let expired = r.u64()?;
        let mut sets = [BTreeMap::new(), BTreeMap::new()];
        for set in &mut sets {
            let n = r.u32()?;
            for _ in 0..n {
                let idx = r.u64()?;
                let view_bytes = r.bytes()?;
                let interval = self.calendar.interval(idx)?.ok_or_else(|| {
                    ChronicleError::Internal(format!(
                        "periodic snapshot names interval {idx} outside the calendar"
                    ))
                })?;
                let view = PersistentView::restore(
                    ViewId(idx as u32),
                    format!("{}[{}]", self.name, idx),
                    self.template.clone(),
                    &view_bytes,
                )?;
                set.insert(idx, IntervalViewState { interval, view });
            }
        }
        let [live, closed] = sets;
        self.live = live;
        self.closed = closed;
        self.retire_cursor = retire_cursor;
        self.expired = expired;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_algebra::{AggFunc, AggSpec, CaExpr};
    use chronicle_store::{Catalog, Retention};
    use chronicle_types::{tuple, AttrType, Attribute, ChronicleId, Chronon, Schema, SeqNo, Tuple};

    fn setup() -> (Catalog, ChronicleId, ScaExpr) {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").unwrap();
        let cs = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("acct", AttrType::Int),
                Attribute::new("amount", AttrType::Float),
            ],
            "sn",
        )
        .unwrap();
        let c = cat
            .create_chronicle("txns", g, cs, Retention::None)
            .unwrap();
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["acct"],
            vec![AggSpec::new(AggFunc::Sum(2), "total")],
        )
        .unwrap();
        (cat, c, expr)
    }

    fn ev(c: ChronicleId, seq: u64, at: i64, tuples: Vec<Tuple>) -> AppendEvent {
        AppendEvent {
            chronicle: c,
            seq: SeqNo(seq),
            chronon: Chronon(at),
            tuples,
        }
    }

    #[test]
    fn monthly_views_split_by_interval() {
        let (cat, c, expr) = setup();
        // "Months" of 30 ticks.
        let cal = Calendar::every(Chronon(0), 30).unwrap();
        let mut set = PeriodicViewSet::new("monthly", expr, cal, None);
        let mut w = WorkCounter::default();
        set.on_append(
            &cat,
            &ev(c, 1, 5, vec![tuple![SeqNo(1), 7i64, 10.0f64]]),
            &mut w,
        )
        .unwrap();
        set.on_append(
            &cat,
            &ev(c, 2, 25, vec![tuple![SeqNo(2), 7i64, 5.0f64]]),
            &mut w,
        )
        .unwrap();
        set.on_append(
            &cat,
            &ev(c, 3, 35, vec![tuple![SeqNo(3), 7i64, 2.0f64]]),
            &mut w,
        )
        .unwrap();
        // Month 0 closed with 15.0; month 1 live with 2.0.
        let m0 = set.result(0).unwrap();
        assert_eq!(
            m0.view.get_agg(&[Value::Int(7)], 0),
            Some(Value::Float(15.0))
        );
        let m1 = set.result(1).unwrap();
        assert_eq!(
            m1.view.get_agg(&[Value::Int(7)], 0),
            Some(Value::Float(2.0))
        );
        let (live, closed, expired) = set.counts();
        assert_eq!((live, closed, expired), (1, 1, 0));
    }

    #[test]
    fn overlapping_windows_fan_out() {
        let (cat, c, expr) = setup();
        // Window of 3 ticks stepping 1: a tuple lands in up to 3 windows.
        let cal = Calendar::sliding(Chronon(0), 3, 1).unwrap();
        let mut set = PeriodicViewSet::new("win", expr, cal, None);
        let mut w = WorkCounter::default();
        let n = set
            .on_append(
                &cat,
                &ev(c, 1, 5, vec![tuple![SeqNo(1), 7i64, 1.0f64]]),
                &mut w,
            )
            .unwrap();
        assert_eq!(n, 3, "chronon 5 lies in windows starting at 3, 4, 5");
        assert!(set.query(3, &[Value::Int(7)]).is_some());
        assert!(set.query(5, &[Value::Int(7)]).is_some());
        assert!(set.query(6, &[Value::Int(7)]).is_none());
    }

    #[test]
    fn expiration_reclaims_space() {
        let (cat, c, expr) = setup();
        let cal = Calendar::every(Chronon(0), 10).unwrap();
        let mut set = PeriodicViewSet::new("m", expr, cal, Some(20));
        let mut w = WorkCounter::default();
        for i in 0..6u64 {
            let at = (i * 10) as i64 + 1; // one batch per period
            set.on_append(
                &cat,
                &ev(c, i + 1, at, vec![tuple![SeqNo(i + 1), 7i64, 1.0f64]]),
                &mut w,
            )
            .unwrap();
        }
        // At t=51: periods 0..4 closed; those ending ≤ 31 expired
        // (ends 10, 20, 30 → expire at 30, 40, 50; t=51 expires all three).
        let (live, closed, expired) = set.counts();
        assert_eq!(live, 1);
        assert_eq!(expired, 3);
        assert_eq!(closed, 2);
        assert!(set.result(0).is_none(), "expired views are gone");
        assert!(set.result(4).is_some());
    }

    #[test]
    fn unrelated_chronicle_does_not_fan_out() {
        let (mut cat, c, expr) = setup();
        let g = cat.group_id("g").unwrap();
        let cs2 = Schema::chronicle(vec![Attribute::new("sn", AttrType::Seq)], "sn").unwrap();
        let other = cat
            .create_chronicle("other", g, cs2, Retention::None)
            .unwrap();
        let cal = Calendar::every(Chronon(0), 10).unwrap();
        let mut set = PeriodicViewSet::new("m", expr, cal, None);
        let mut w = WorkCounter::default();
        let n = set
            .on_append(&cat, &ev(other, 1, 5, vec![tuple![SeqNo(1)]]), &mut w)
            .unwrap();
        assert_eq!(n, 0);
        let (live, ..) = set.counts();
        assert_eq!(live, 0, "no interval view instantiated for foreign data");
        let _ = c;
    }

    #[test]
    fn empty_intervals_never_materialize() {
        let (cat, c, expr) = setup();
        let cal = Calendar::every(Chronon(0), 10).unwrap();
        let mut set = PeriodicViewSet::new("m", expr, cal, None);
        let mut w = WorkCounter::default();
        // Jump straight to period 5; periods 0..4 never existed.
        set.on_append(
            &cat,
            &ev(c, 1, 55, vec![tuple![SeqNo(1), 7i64, 1.0f64]]),
            &mut w,
        )
        .unwrap();
        let (live, closed, _) = set.counts();
        assert_eq!((live, closed), (1, 0));
        assert!(set.result(2).is_none());
    }
}
