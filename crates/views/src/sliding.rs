//! The cyclic-buffer optimization for overlapping windows (§5.1).
//!
//! *"Consider a periodic view for every day that computes the total number
//! of shares of a stock sold during the 30 days preceding that day. ... we
//! should keep the total number of shares sold for each of the last 30 days
//! separately, and derive the view as the sum of these 30 numbers. Moving
//! from one periodic view to the next one involves shifting a cyclic buffer
//! of these 30 numbers."*
//!
//! [`SlidingWindow`] generalizes the quoted trick to any decomposable
//! aggregate (SUM, COUNT, MIN, MAX, AVG, STDDEV — anything
//! [`Accumulator::merge`] supports) and to per-group keys: per key it keeps
//! `k = width/step` bucket sub-accumulators in a ring; appends touch one
//! bucket (O(#aggs)); window rollover pops expired buckets (amortized
//! O(1)); a window query merges the `k` buckets (O(k·#aggs)).
//!
//! **Bucket retirement is a negative-weight delta.** For the retractable
//! aggregates (COUNT/SUM/AVG/STDDEV — the group-structured ones) each ring
//! also carries a *running window total*; a retiring bucket is not simply
//! dropped but **unmerged** from that total ([`Accumulator::unmerge`], the
//! `−1`-weighted inverse of merge), exactly the Z-set retraction that
//! relation deletes use. A whole-window query at the ring's frontier then
//! reads the running total in O(#aggs) instead of re-merging `k` buckets.
//! Non-retractable aggregates (MIN/MAX — no inverse: the retiring bucket
//! may hold the witness) keep the merge-scan, which stays exact because
//! buckets are disjoint.
//!
//! Contrast with a periodic family ([`crate::PeriodicDef`]) over a sliding
//! calendar, which maintains one full view per overlapping window and hence does
//! `width/step` times the work per append — the comparison is experiment E8.

use std::collections::{BTreeMap, VecDeque};

use chronicle_algebra::eval::seq_to_int;
use chronicle_algebra::{Accumulator, AggFunc};
use chronicle_types::{ChronicleError, Chronon, Result, Tuple, Value};

/// Per-key ring of bucket sub-accumulators.
#[derive(Debug)]
struct Ring {
    /// Bucket index (global, since anchor) of the front of `buckets`.
    front_bucket: i64,
    buckets: VecDeque<Vec<Accumulator>>,
    /// Running merge of every bucket currently in the ring, maintained at
    /// the retractable aggregate positions only (the others stay at their
    /// initial state and are never consulted). Retirement subtracts the
    /// departing bucket via `unmerge` — an ordinary negative-weight delta.
    totals: Vec<Accumulator>,
}

/// A keyed sliding-window aggregate with bucketed sub-aggregation.
#[derive(Debug)]
pub struct SlidingWindow {
    /// Window width in buckets (`k`).
    window_buckets: usize,
    /// Bucket width in chronon ticks (the calendar step).
    bucket_ticks: i64,
    /// Chronon of bucket 0's start.
    anchor: Chronon,
    /// Aggregates maintained per key.
    aggs: Vec<AggFunc>,
    /// Key columns within inserted tuples.
    key_cols: Vec<usize>,
    /// `retractable[i]` ⇔ `aggs[i]` has an exact inverse (running totals
    /// are maintained only at these positions).
    retractable: Vec<bool>,
    rings: BTreeMap<Vec<Value>, Ring>,
    /// Total accumulator updates performed (work accounting for E8; counts
    /// bucket folds only, not running-total bookkeeping).
    updates: u64,
    /// Accumulators retracted out of running totals by bucket retirement
    /// (each is one negative-weight delta application).
    retractions: u64,
}

impl SlidingWindow {
    /// A window covering `window_buckets` buckets of `bucket_ticks` ticks
    /// each (e.g. 30 buckets × 1 day), keyed by `key_cols` of the inserted
    /// tuples, maintaining `aggs`.
    pub fn new(
        anchor: Chronon,
        window_buckets: usize,
        bucket_ticks: i64,
        key_cols: Vec<usize>,
        aggs: Vec<AggFunc>,
    ) -> Result<Self> {
        if window_buckets == 0 || bucket_ticks <= 0 {
            return Err(ChronicleError::InvalidSchema(format!(
                "sliding window needs positive dimensions, got {window_buckets} × {bucket_ticks}"
            )));
        }
        if aggs.is_empty() {
            return Err(ChronicleError::BadAggregate {
                detail: "sliding window needs at least one aggregate".into(),
            });
        }
        let retractable = aggs.iter().map(|f| f.is_retractable()).collect();
        Ok(SlidingWindow {
            window_buckets,
            bucket_ticks,
            anchor,
            aggs,
            key_cols,
            retractable,
            rings: BTreeMap::new(),
            updates: 0,
            retractions: 0,
        })
    }

    fn bucket_of(&self, at: Chronon) -> i64 {
        (at.0 - self.anchor.0).div_euclid(self.bucket_ticks)
    }

    /// Fold one tuple observed at chronon `at` into its key's current
    /// bucket. O(#aggs) amortized.
    pub fn insert(&mut self, at: Chronon, tuple: &Tuple) -> Result<()> {
        let bucket = self.bucket_of(at);
        let key: Vec<Value> = self
            .key_cols
            .iter()
            .map(|&c| tuple.get(c).clone())
            .collect();
        let aggs = &self.aggs;
        let retractable = &self.retractable;
        let ring = self.rings.entry(key).or_insert_with(|| Ring {
            front_bucket: bucket,
            buckets: VecDeque::new(),
            totals: aggs.iter().map(|&f| Accumulator::new(f)).collect(),
        });
        if ring.buckets.is_empty() {
            ring.front_bucket = bucket;
            ring.buckets
                .push_back(aggs.iter().map(|&f| Accumulator::new(f)).collect());
        } else {
            let last = ring.front_bucket + ring.buckets.len() as i64 - 1;
            if bucket < last {
                // Bucket indices are signed (chronons before `anchor` land in
                // negative buckets), so the error must carry them as i64 — an
                // `as u64` cast here turned bucket -3 into 2^64-3.
                return Err(ChronicleError::NonMonotonicBucket {
                    newest: last,
                    attempted: bucket,
                });
            }
            if bucket - last >= self.window_buckets as i64 {
                // The gap exceeds the window: every existing bucket has
                // expired, so reset in O(1) instead of sliding one bucket
                // at a time. Resetting the totals is the consolidated form
                // of unmerging every bucket individually.
                ring.buckets.clear();
                ring.front_bucket = bucket;
                ring.buckets
                    .push_back(aggs.iter().map(|&f| Accumulator::new(f)).collect());
                ring.totals = aggs.iter().map(|&f| Accumulator::new(f)).collect();
            } else {
                // Extend the ring up to `bucket`, retiring buckets older
                // than the window as it slides (≤ window_buckets steps).
                // Each retirement is a negative-weight delta: the departing
                // bucket is *unmerged* from the running totals, the same
                // retraction a relation delete drives through a view.
                while ring.front_bucket + (ring.buckets.len() as i64) <= bucket {
                    ring.buckets
                        .push_back(aggs.iter().map(|&f| Accumulator::new(f)).collect());
                    if ring.buckets.len() > self.window_buckets {
                        let retired = ring.buckets.pop_front().expect("len > window ≥ 1");
                        ring.front_bucket += 1;
                        for (i, acc) in retired.iter().enumerate() {
                            if retractable[i] {
                                ring.totals[i].unmerge(acc)?;
                                self.retractions += 1;
                            }
                        }
                    }
                }
            }
        }
        let back = ring.buckets.back_mut().expect("ring non-empty");
        for acc in back.iter_mut() {
            acc.update(tuple)?;
            self.updates += 1;
        }
        for (i, acc) in ring.totals.iter_mut().enumerate() {
            if retractable[i] {
                acc.update(tuple)?;
            }
        }
        Ok(())
    }

    /// The window aggregate for `key` as of chronon `now`: merge of the
    /// buckets inside `[now − window, now]`.
    ///
    /// When that range covers the whole ring — the common "query at the
    /// frontier" case — retractable aggregates read the running totals in
    /// O(#aggs); otherwise (and always for MIN/MAX) the in-range buckets
    /// are merged, O(window_buckets · #aggs).
    pub fn query(&self, key: &[Value], now: Chronon) -> Result<Vec<Value>> {
        let current = self.bucket_of(now);
        let oldest = current - self.window_buckets as i64 + 1;
        let mut merged: Vec<Accumulator> = self.aggs.iter().map(|&f| Accumulator::new(f)).collect();
        if let Some(ring) = self.rings.get(key) {
            let last = ring.front_bucket + ring.buckets.len() as i64 - 1;
            let covered =
                !ring.buckets.is_empty() && ring.front_bucket >= oldest && last <= current;
            for (i, m) in merged.iter_mut().enumerate() {
                if covered && self.retractable[i] {
                    *m = ring.totals[i].clone();
                    continue;
                }
                for (j, bucket) in ring.buckets.iter().enumerate() {
                    let b = ring.front_bucket + j as i64;
                    if b >= oldest && b <= current {
                        m.merge(&bucket[i])?;
                    }
                }
            }
        }
        Ok(merged.iter().map(|a| seq_to_int(a.finalize())).collect())
    }

    /// Number of keys tracked.
    pub fn key_count(&self) -> usize {
        self.rings.len()
    }

    /// Total accumulator updates performed (the per-append work metric).
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Accumulators retracted from running totals by bucket retirement —
    /// how many negative-weight deltas window expiration has driven.
    pub fn retractions(&self) -> u64 {
        self.retractions
    }

    /// The window width in ticks.
    pub fn window_ticks(&self) -> i64 {
        self.window_buckets as i64 * self.bucket_ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::tuple;

    fn window() -> SlidingWindow {
        // 3 buckets of 10 ticks: a 30-tick window.
        SlidingWindow::new(
            Chronon(0),
            3,
            10,
            vec![0],
            vec![AggFunc::Sum(1), AggFunc::CountStar, AggFunc::Max(1)],
        )
        .unwrap()
    }

    #[test]
    fn aggregates_within_window() {
        let mut w = window();
        w.insert(Chronon(1), &tuple![7i64, 100i64]).unwrap();
        w.insert(Chronon(11), &tuple![7i64, 50i64]).unwrap();
        w.insert(Chronon(21), &tuple![7i64, 25i64]).unwrap();
        let v = w.query(&[Value::Int(7)], Chronon(25)).unwrap();
        assert_eq!(v, vec![Value::Int(175), Value::Int(3), Value::Int(100)]);
    }

    #[test]
    fn old_buckets_fall_out() {
        let mut w = window();
        w.insert(Chronon(1), &tuple![7i64, 100i64]).unwrap();
        w.insert(Chronon(35), &tuple![7i64, 50i64]).unwrap();
        // At t=35 (bucket 3), the window covers buckets 1..=3; bucket 0
        // (the 100-share trade) has slid out.
        let v = w.query(&[Value::Int(7)], Chronon(35)).unwrap();
        assert_eq!(v[0], Value::Int(50));
        assert_eq!(v[1], Value::Int(1));
    }

    #[test]
    fn query_respects_now_even_mid_ring() {
        let mut w = window();
        w.insert(Chronon(1), &tuple![7i64, 10i64]).unwrap();
        w.insert(Chronon(11), &tuple![7i64, 20i64]).unwrap();
        // Query as of bucket 4: only buckets 2..=4 count; both trades are
        // older, but bucket 1 (t=11) is outside [2,4] while the ring still
        // holds it.
        let v = w.query(&[Value::Int(7)], Chronon(45)).unwrap();
        assert_eq!(v[0], Value::Null, "empty SUM is NULL");
        assert_eq!(v[1], Value::Int(0));
        // As of bucket 1, both buckets 0 and 1 are in range... window is
        // buckets -1..=1, so sum = 30.
        let v = w.query(&[Value::Int(7)], Chronon(15)).unwrap();
        assert_eq!(v[0], Value::Int(30));
    }

    #[test]
    fn keys_are_independent() {
        let mut w = window();
        w.insert(Chronon(1), &tuple![7i64, 100i64]).unwrap();
        w.insert(Chronon(1), &tuple![8i64, 1i64]).unwrap();
        assert_eq!(w.key_count(), 2);
        let v7 = w.query(&[Value::Int(7)], Chronon(5)).unwrap();
        let v8 = w.query(&[Value::Int(8)], Chronon(5)).unwrap();
        assert_eq!(v7[0], Value::Int(100));
        assert_eq!(v8[0], Value::Int(1));
        let missing = w.query(&[Value::Int(9)], Chronon(5)).unwrap();
        assert_eq!(missing[1], Value::Int(0));
    }

    #[test]
    fn min_max_correct_across_bucket_expiry() {
        // MAX over a sliding window is exact because buckets are disjoint:
        // when the max-holding bucket expires, the merge of the remaining
        // buckets yields the true new max.
        let mut w = SlidingWindow::new(Chronon(0), 2, 10, vec![0], vec![AggFunc::Max(1)]).unwrap();
        w.insert(Chronon(5), &tuple![1i64, 999i64]).unwrap();
        w.insert(Chronon(15), &tuple![1i64, 7i64]).unwrap();
        assert_eq!(
            w.query(&[Value::Int(1)], Chronon(15)).unwrap()[0],
            Value::Int(999)
        );
        w.insert(Chronon(25), &tuple![1i64, 3i64]).unwrap();
        // Bucket 0 (999) expired; max of buckets 1..=2 is 7.
        assert_eq!(
            w.query(&[Value::Int(1)], Chronon(25)).unwrap()[0],
            Value::Int(7)
        );
    }

    #[test]
    fn out_of_order_insert_rejected() {
        let mut w = window();
        w.insert(Chronon(25), &tuple![7i64, 1i64]).unwrap();
        assert!(w.insert(Chronon(5), &tuple![7i64, 1i64]).is_err());
        // Same-bucket insert is fine.
        w.insert(Chronon(29), &tuple![7i64, 1i64]).unwrap();
    }

    #[test]
    fn before_anchor_inserts_use_signed_buckets() {
        // Chronons before the anchor land in negative buckets; the ring
        // handles them like any other signed index.
        let mut w = window();
        w.insert(Chronon(-25), &tuple![7i64, 100i64]).unwrap(); // bucket -3
        w.insert(Chronon(-15), &tuple![7i64, 50i64]).unwrap(); // bucket -2
        let v = w.query(&[Value::Int(7)], Chronon(-11)).unwrap();
        assert_eq!(v[0], Value::Int(150));
        assert_eq!(v[1], Value::Int(2));
    }

    #[test]
    fn negative_bucket_error_is_signed() {
        // Regression: the out-of-order error used to cast the signed bucket
        // indices through `as u64`, so an insert at bucket -3 reported
        // `attempted: 18446744073709551613`.
        let mut w = window();
        w.insert(Chronon(25), &tuple![7i64, 1i64]).unwrap(); // bucket 2
        let err = w.insert(Chronon(-25), &tuple![7i64, 1i64]).unwrap_err();
        match err {
            ChronicleError::NonMonotonicBucket { newest, attempted } => {
                assert_eq!(newest, 2);
                assert_eq!(attempted, -3);
            }
            other => panic!("expected NonMonotonicBucket, got {other:?}"),
        }
    }

    #[test]
    fn big_time_jump_clears_ring() {
        let mut w = window();
        w.insert(Chronon(1), &tuple![7i64, 100i64]).unwrap();
        w.insert(Chronon(1000), &tuple![7i64, 5i64]).unwrap();
        let v = w.query(&[Value::Int(7)], Chronon(1000)).unwrap();
        assert_eq!(v[0], Value::Int(5));
        // Ring stayed bounded.
        let ring = w.rings.get(&vec![Value::Int(7)]).unwrap();
        assert!(ring.buckets.len() <= 3);
    }

    #[test]
    fn retirement_unmerges_from_running_totals() {
        let mut w = window();
        assert_eq!(w.retractions(), 0);
        w.insert(Chronon(1), &tuple![7i64, 100i64]).unwrap(); // bucket 0
        w.insert(Chronon(11), &tuple![7i64, 50i64]).unwrap(); // bucket 1
        w.insert(Chronon(35), &tuple![7i64, 25i64]).unwrap(); // bucket 3 → retires bucket 0
                                                              // SUM and COUNT are retractable: one retired bucket = 2 negative
                                                              // deltas. MAX is not (its witness may retire), so no retraction.
        assert_eq!(w.retractions(), 2);
        let v = w.query(&[Value::Int(7)], Chronon(35)).unwrap();
        assert_eq!(
            v,
            vec![Value::Int(75), Value::Int(2), Value::Int(50)],
            "totals after unmerge must match the merge-scan answer"
        );
    }

    #[test]
    fn running_totals_agree_with_merge_scan_across_slides() {
        // Differential check within the window itself: after every insert
        // the frontier query (running totals fast path) must equal a
        // freshly-built control window queried the same way after replaying
        // only the in-window suffix.
        let mut w = SlidingWindow::new(
            Chronon(0),
            4,
            5,
            vec![0],
            vec![
                AggFunc::Sum(1),
                AggFunc::Avg(1),
                AggFunc::StdDev(1),
                AggFunc::CountStar,
            ],
        )
        .unwrap();
        let trades: Vec<(i64, i64)> = vec![
            (1, 100),
            (4, 50),
            (7, 25),
            (12, 10),
            (22, 5),
            (23, 200),
            (31, 8),
            (44, 1),
            (45, 2),
            (46, 4),
        ];
        for (i, &(t, x)) in trades.iter().enumerate() {
            w.insert(Chronon(t), &tuple![1i64, x]).unwrap();
            // Control: replay only the tuples whose bucket is in range.
            let mut control =
                SlidingWindow::new(Chronon(0), 4, 5, vec![0], vec![AggFunc::Sum(1)]).unwrap();
            let cur = t.div_euclid(5);
            for &(t2, x2) in &trades[..=i] {
                if t2.div_euclid(5) > cur - 4 {
                    control.insert(Chronon(t2), &tuple![1i64, x2]).unwrap();
                }
            }
            let got = w.query(&[Value::Int(1)], Chronon(t)).unwrap();
            let want = control.query(&[Value::Int(1)], Chronon(t)).unwrap();
            assert_eq!(got[0], want[0], "SUM diverged at t={t}");
        }
        assert!(w.retractions() > 0, "the schedule must exercise retirement");
    }

    #[test]
    fn mid_ring_query_still_exact_after_retirements() {
        let mut w = window();
        w.insert(Chronon(1), &tuple![7i64, 10i64]).unwrap(); // bucket 0
        w.insert(Chronon(11), &tuple![7i64, 20i64]).unwrap(); // bucket 1
        w.insert(Chronon(35), &tuple![7i64, 40i64]).unwrap(); // bucket 3, retires 0
                                                              // `now` in the past relative to the frontier: the window covers
                                                              // buckets -1..=1 but bucket 0 is gone and 3 is out of range — the
                                                              // fast path must not apply; the scan answers from bucket 1 alone.
        let v = w.query(&[Value::Int(7)], Chronon(15)).unwrap();
        assert_eq!(v[0], Value::Int(20));
        assert_eq!(v[1], Value::Int(1));
    }

    #[test]
    fn invalid_construction_rejected() {
        assert!(SlidingWindow::new(Chronon(0), 0, 10, vec![0], vec![AggFunc::CountStar]).is_err());
        assert!(SlidingWindow::new(Chronon(0), 3, 0, vec![0], vec![AggFunc::CountStar]).is_err());
        assert!(SlidingWindow::new(Chronon(0), 3, 10, vec![0], vec![]).is_err());
    }
}
