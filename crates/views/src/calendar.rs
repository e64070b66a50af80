//! Calendars: sets of time intervals for periodic views (§5.1).
//!
//! *"Given a view V in summary algebra, and a calendar D (i.e., a set of
//! time intervals), `V<D>` specifies a set of views V₁, …, V_k, one for each
//! interval in the calendar D."* Calendars may contain infinitely many
//! intervals (e.g. "every month, forever"); expiration dates make the
//! infinite family implementable by keeping only finitely many live views.

use chronicle_types::{ChronicleError, Chronon, Result};

/// A half-open time interval `[start, end)` over chronons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Interval {
    /// Inclusive start.
    pub start: Chronon,
    /// Exclusive end.
    pub end: Chronon,
}

impl Interval {
    /// Build an interval; `start < end` required.
    pub fn new(start: Chronon, end: Chronon) -> Result<Interval> {
        if start >= end {
            return Err(ChronicleError::InvalidSchema(format!(
                "interval start {start} must precede end {end}"
            )));
        }
        Ok(Interval { start, end })
    }

    /// Whether `t` lies in `[start, end)`.
    pub fn contains(&self, t: Chronon) -> bool {
        self.start <= t && t < self.end
    }

    /// Width in ticks.
    pub fn width(&self) -> i64 {
        self.end.0 - self.start.0
    }
}

/// A calendar: either an explicit finite set of intervals, or a periodic
/// family `[anchor + i·step, anchor + i·step + width)` for `i = 0, 1, …`
/// (finite if `count` is set, infinite otherwise).
///
/// * `step == width` — consecutive non-overlapping periods (billing months),
/// * `step < width`  — overlapping windows (30-day moving window stepping
///   daily: `width = 30 days`, `step = 1 day`),
/// * `step > width`  — sampling windows with gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Calendar {
    /// An explicit, finite set of intervals (sorted by construction).
    Explicit(Vec<Interval>),
    /// The periodic family described above.
    Periodic {
        /// Start of interval 0.
        anchor: Chronon,
        /// Interval width in ticks.
        width: i64,
        /// Distance between consecutive interval starts.
        step: i64,
        /// Number of intervals, or `None` for an infinite calendar.
        count: Option<u64>,
    },
}

impl Calendar {
    /// An explicit calendar; intervals are sorted by start.
    pub fn explicit(mut intervals: Vec<Interval>) -> Result<Calendar> {
        if intervals.is_empty() {
            return Err(ChronicleError::InvalidSchema(
                "calendar must contain at least one interval".into(),
            ));
        }
        intervals.sort();
        Ok(Calendar::Explicit(intervals))
    }

    /// A single-interval calendar (the degenerate case the paper notes:
    /// "When the calendar D has only one interval, the periodic view
    /// corresponds to a single view defined using an extra selection").
    pub fn single(interval: Interval) -> Calendar {
        Calendar::Explicit(vec![interval])
    }

    /// A periodic calendar.
    pub fn periodic(
        anchor: Chronon,
        width: i64,
        step: i64,
        count: Option<u64>,
    ) -> Result<Calendar> {
        if width <= 0 || step <= 0 {
            return Err(ChronicleError::InvalidSchema(format!(
                "calendar width ({width}) and step ({step}) must be positive"
            )));
        }
        if count == Some(0) {
            return Err(ChronicleError::InvalidSchema(
                "calendar must contain at least one interval".into(),
            ));
        }
        Ok(Calendar::Periodic {
            anchor,
            width,
            step,
            count,
        })
    }

    /// Consecutive equal periods (billing months): `step == width`.
    pub fn every(anchor: Chronon, width: i64) -> Result<Calendar> {
        Self::periodic(anchor, width, width, None)
    }

    /// A sliding window of `width` ticks stepping every `step` ticks.
    pub fn sliding(anchor: Chronon, width: i64, step: i64) -> Result<Calendar> {
        Self::periodic(anchor, width, step, None)
    }

    /// Whether the calendar has finitely many intervals.
    pub fn is_finite(&self) -> bool {
        match self {
            Calendar::Explicit(_) => true,
            Calendar::Periodic { count, .. } => count.is_some(),
        }
    }

    /// The `idx`-th interval: `Ok(None)` past the end of a finite calendar,
    /// `Err(CalendarOutOfRange)` when `anchor + idx·step` (or the interval
    /// end) does not fit in a chronon. The arithmetic runs in `i128`, which
    /// cannot overflow for any `u64` index (`|anchor| ≤ 2⁶³`, `step < 2⁶³`,
    /// `idx < 2⁶⁴` keeps every product below `2¹²⁷`).
    pub fn interval(&self, idx: u64) -> Result<Option<Interval>> {
        match self {
            Calendar::Explicit(v) => Ok(v.get(idx as usize).copied()),
            Calendar::Periodic {
                anchor,
                width,
                step,
                count,
            } => {
                if let Some(n) = count {
                    if idx >= *n {
                        return Ok(None);
                    }
                }
                let start = anchor.0 as i128 + idx as i128 * *step as i128;
                let end = start + *width as i128;
                let (Ok(start), Ok(end)) = (i64::try_from(start), i64::try_from(end)) else {
                    return Err(ChronicleError::CalendarOutOfRange {
                        index: idx,
                        detail: format!("interval [{start}, {end}) exceeds the chronon domain"),
                    });
                };
                Ok(Some(Interval {
                    start: Chronon(start),
                    end: Chronon(end),
                }))
            }
        }
    }

    /// Indices of all intervals containing chronon `t`. For periodic
    /// calendars this is O(width/step) arithmetic, never a scan.
    pub fn intervals_containing(&self, t: Chronon) -> Vec<u64> {
        match self {
            Calendar::Explicit(v) => v
                .iter()
                .enumerate()
                .filter(|(_, iv)| iv.contains(t))
                .map(|(i, _)| i as u64)
                .collect(),
            Calendar::Periodic {
                anchor,
                width,
                step,
                count,
            } => {
                // `t − anchor` can exceed i64 when the operands sit at
                // opposite extremes; i128 keeps the index math exact.
                let rel = t.0 as i128 - anchor.0 as i128;
                if rel < 0 {
                    return Vec::new();
                }
                let (width, step) = (*width as i128, *step as i128);
                // Interval i covers t iff i·step ≤ rel < i·step + width,
                // i.e. floor((rel − width)/step) < i ≤ floor(rel/step).
                // div_euclid is floor division (plain `/` truncates toward
                // zero and overshoots for negative numerators).
                let hi = rel.div_euclid(step);
                let lo = ((rel - width).div_euclid(step) + 1).max(0);
                (lo..=hi)
                    .filter(|&i| {
                        count.is_none_or(|n| (i as u128) < n as u128) && rel - i * step < width
                    })
                    .map(|i| i as u64)
                    .collect()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_basics() {
        let iv = Interval::new(Chronon(10), Chronon(20)).unwrap();
        assert!(iv.contains(Chronon(10)));
        assert!(iv.contains(Chronon(19)));
        assert!(!iv.contains(Chronon(20)));
        assert!(!iv.contains(Chronon(9)));
        assert_eq!(iv.width(), 10);
        assert!(Interval::new(Chronon(5), Chronon(5)).is_err());
    }

    #[test]
    fn monthly_calendar_non_overlapping() {
        // "Months" of 30 ticks starting at 0.
        let cal = Calendar::every(Chronon(0), 30).unwrap();
        assert!(!cal.is_finite());
        assert_eq!(
            cal.interval(0).unwrap().unwrap(),
            Interval::new(Chronon(0), Chronon(30)).unwrap()
        );
        assert_eq!(cal.interval(2).unwrap().unwrap().start, Chronon(60));
        assert_eq!(cal.intervals_containing(Chronon(0)), vec![0]);
        assert_eq!(cal.intervals_containing(Chronon(29)), vec![0]);
        assert_eq!(cal.intervals_containing(Chronon(30)), vec![1]);
        assert_eq!(cal.intervals_containing(Chronon(-1)), Vec::<u64>::new());
    }

    #[test]
    fn sliding_calendar_overlapping() {
        // 30-tick window stepping daily (1 tick): chronon 35 is inside
        // windows starting at 6..=35, i.e. indices 6..=35.
        let cal = Calendar::sliding(Chronon(0), 30, 1).unwrap();
        let hits = cal.intervals_containing(Chronon(35));
        assert_eq!(hits.len(), 30);
        assert_eq!(*hits.first().unwrap(), 6);
        assert_eq!(*hits.last().unwrap(), 35);
        // Early chronons fall in fewer windows (no negative indices).
        assert_eq!(cal.intervals_containing(Chronon(3)).len(), 4);
    }

    #[test]
    fn finite_calendar_bounds() {
        let cal = Calendar::periodic(Chronon(0), 10, 10, Some(3)).unwrap();
        assert!(cal.is_finite());
        assert!(cal.interval(2).unwrap().is_some());
        assert!(cal.interval(3).unwrap().is_none());
        assert_eq!(cal.intervals_containing(Chronon(35)), Vec::<u64>::new());
    }

    #[test]
    fn explicit_calendar_sorted_and_queried() {
        let cal = Calendar::explicit(vec![
            Interval::new(Chronon(50), Chronon(60)).unwrap(),
            Interval::new(Chronon(0), Chronon(100)).unwrap(),
        ])
        .unwrap();
        assert_eq!(cal.intervals_containing(Chronon(55)), vec![0, 1]);
        assert_eq!(cal.intervals_containing(Chronon(5)), vec![0]);
        assert!(Calendar::explicit(vec![]).is_err());
    }

    #[test]
    fn degenerate_single_interval() {
        let cal = Calendar::single(Interval::new(Chronon(0), Chronon(10)).unwrap());
        assert!(cal.is_finite());
        assert_eq!(cal.intervals_containing(Chronon(5)), vec![0]);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Calendar::periodic(Chronon(0), 0, 1, None).is_err());
        assert!(Calendar::periodic(Chronon(0), 1, 0, None).is_err());
        assert!(Calendar::periodic(Chronon(0), 1, 1, Some(0)).is_err());
    }

    #[test]
    fn interval_near_i64_max_is_a_typed_error_not_a_wrap() {
        // step == width == 4, anchor 10 ticks below the chronon ceiling:
        // intervals 0 and 1 still fit, interval 2 would end past i64::MAX.
        let cal = Calendar::every(Chronon(i64::MAX - 10), 4).unwrap();
        assert_eq!(
            cal.interval(0).unwrap().unwrap(),
            Interval::new(Chronon(i64::MAX - 10), Chronon(i64::MAX - 6)).unwrap()
        );
        assert!(cal.interval(1).unwrap().is_some());
        assert!(matches!(
            cal.interval(2),
            Err(ChronicleError::CalendarOutOfRange { index: 2, .. })
        ));
        // A huge index overflows by many orders of magnitude — still a
        // typed error, not a debug panic or a silent release wrap.
        assert!(matches!(
            cal.interval(u64::MAX),
            Err(ChronicleError::CalendarOutOfRange { .. })
        ));
    }

    #[test]
    fn containment_stays_exact_across_the_full_chronon_span() {
        // Anchor at i64::MIN, windows of 2^32 ticks: `t - anchor` exceeds
        // i64 for late chronons, which used to overflow before the i128
        // index arithmetic.
        let w = 1i64 << 32;
        let cal = Calendar::every(Chronon(i64::MIN), w).unwrap();
        let t = Chronon(i64::MAX - w);
        let hits = cal.intervals_containing(t);
        assert_eq!(hits, vec![(1u64 << 32) - 2]);
        let iv = cal.interval(hits[0]).unwrap().unwrap();
        assert!(iv.contains(t));
    }

    #[test]
    fn gapped_calendar() {
        // Width 5, step 10: gaps between windows.
        let cal = Calendar::periodic(Chronon(0), 5, 10, None).unwrap();
        assert_eq!(cal.intervals_containing(Chronon(3)), vec![0]);
        assert_eq!(cal.intervals_containing(Chronon(7)), Vec::<u64>::new());
        assert_eq!(cal.intervals_containing(Chronon(12)), vec![1]);
    }
}
