//! Append and maintenance accounting.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use chronicle_algebra::WorkCounter;
use chronicle_durability::SalvageReport;
use chronicle_testkit::{Rng, SeedableRng, SmallRng};
use chronicle_views::MaintenanceReport;

/// Size of the retained latency sample.
const SAMPLE: usize = 4096;

/// Seed for the reservoir's replacement draws. Fixed, so a run's retained
/// sample is reproducible; statistical guarantees need the draws to be
/// uncorrelated with the data, not unpredictable.
const RESERVOIR_SEED: u64 = 0x1a7e_5a3e_0b5e_7a11;

/// A bounded reservoir of latency observations with cached percentiles.
///
/// This is the lazy-percentile plumbing behind
/// [`DbStats::latency_percentile`], factored out so other subsystems
/// (network request latency, replication apply latency) reuse the same
/// reservoir + cached-sort discipline instead of growing their own. Once
/// `SAMPLE` observations are retained, observation number `n` replaces a
/// uniformly random slot with probability `SAMPLE/n` (Algorithm R), so
/// every observation of the run — not just the first or the most recent
/// `SAMPLE` — is equally likely to be in the retained sample and long
/// runs stay representative end to end.
#[derive(Debug, Clone)]
pub struct LatencySample {
    /// Reservoir of retained observations (ns), at most `SAMPLE` of them.
    samples: Vec<u64>,
    /// Total observations ever recorded (drives replacement probability).
    seen: u64,
    /// Seeded source of replacement draws (deterministic per run).
    rng: SmallRng,
    /// Lazily sorted copy of `samples` for percentile queries; rebuilt
    /// only when a query arrives after new data (`stale`).
    sorted: RefCell<Vec<u64>>,
    stale: Cell<bool>,
}

impl Default for LatencySample {
    fn default() -> Self {
        LatencySample {
            samples: Vec::new(),
            seen: 0,
            rng: SmallRng::seed_from_u64(RESERVOIR_SEED),
            sorted: RefCell::new(Vec::new()),
            stale: Cell::new(false),
        }
    }
}

impl LatencySample {
    /// Record one observation in nanoseconds.
    pub fn record(&mut self, nanos: u64) {
        self.seen += 1;
        if self.samples.len() < SAMPLE {
            self.samples.push(nanos);
        } else {
            // Algorithm R: keep with probability SAMPLE/seen, evicting a
            // uniformly random resident so the retained set stays an
            // unbiased sample of everything seen so far.
            let j = self.rng.next_u64() % self.seen;
            if (j as usize) < SAMPLE {
                self.samples[j as usize] = nanos;
            }
        }
        self.stale.set(true);
    }

    /// Fold another reservoir in: the other side's retained observations
    /// are re-offered to this reservoir one by one (so a full receiver
    /// still admits them with the usual replacement probability instead
    /// of dropping them wholesale), and its unretained population is
    /// folded into the observation count.
    pub fn absorb(&mut self, other: &LatencySample) {
        for &nanos in &other.samples {
            self.record(nanos);
        }
        self.seen += other.seen - other.samples.len() as u64;
        self.stale.set(true);
    }

    /// Latency percentile (e.g. `0.5`, `0.99`) over the retained sample;
    /// `0` when empty. The sorted view is cached, so repeated queries
    /// between observations cost O(1).
    pub fn percentile(&self, q: f64) -> u64 {
        if self.samples.is_empty() {
            return 0;
        }
        if self.stale.get() {
            let mut v = self.sorted.borrow_mut();
            v.clear();
            v.extend_from_slice(&self.samples);
            v.sort_unstable();
            self.stale.set(false);
        }
        let v = self.sorted.borrow();
        let idx = ((v.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        v[idx]
    }

    /// Observations currently retained (at most the ring size).
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Decayed per-group append rates — the observation side of heavy-light
/// placement (DESIGN.md §16).
///
/// Each group carries an integer pair `(decayed, current)`: appends land
/// in `current`, and [`GroupRates::decay`] folds the table as
/// `decayed = decayed/2 + current; current = 0` — an exponential moving
/// sum in pure integer arithmetic, so the classifier's inputs (and
/// therefore every placement decision) are bit-reproducible across runs
/// and platforms. A group's rate is `decayed + current`: recent traffic
/// dominates, dead groups decay to zero and are dropped from the table.
///
/// The fold is driven by the placement planner
/// ([`crate::ShardedDb::rebalance`] folds every shard's table after each
/// pass), **not** by per-shard record counts. This is load-bearing for
/// cross-shard comparability: if each shard folded on its own traffic
/// cadence, a busy shard's table would plateau at a couple of windows
/// while an idle shard's kept accumulating unfolded history, inflating
/// the idle shard's share of the absorbed total and deflating exactly
/// the heavy groups the classifier must find. Folding everyone at the
/// same planning instants keeps every table spanning the same
/// observation interval, with half-life one planning interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroupRates {
    /// Group name → `(decayed, current)` tuple counters. A `BTreeMap`, so
    /// iteration order — and everything downstream of it — is
    /// deterministic.
    counts: BTreeMap<String, (u64, u64)>,
}

impl GroupRates {
    /// Record one append batch of `tuples` rows against `group`.
    pub fn record(&mut self, group: &str, tuples: u64) {
        match self.counts.get_mut(group) {
            Some(e) => e.1 += tuples,
            None => {
                self.counts.insert(group.to_string(), (0, tuples));
            }
        }
    }

    /// Halve every decayed counter and roll the current window in,
    /// dropping groups whose rate has decayed to zero. Called by the
    /// placement planner after every pass (see the type docs for why the
    /// planner, not the recorder, owns the decay clock).
    pub fn decay(&mut self) {
        self.counts.retain(|_, e| {
            e.0 = e.0 / 2 + e.1;
            e.1 = 0;
            e.0 > 0
        });
    }

    /// The decayed append rate of `group` (0 if never seen or fully
    /// decayed).
    pub fn rate(&self, group: &str) -> u64 {
        self.counts.get(group).map_or(0, |&(d, c)| d + c)
    }

    /// Every tracked group with its current rate, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counts.iter().map(|(g, &(d, c))| (g.as_str(), d + c))
    }

    /// Sum of all tracked rates.
    pub fn total(&self) -> u64 {
        self.counts.values().map(|&(d, c)| d + c).sum()
    }

    /// Drop a group's counters entirely (it moved to another shard; the
    /// target rebuilds its rate from the traffic it actually receives).
    pub fn forget(&mut self, group: &str) {
        self.counts.remove(group);
    }

    /// Fold another table in (cross-shard aggregation): counters add
    /// componentwise, so the merged rate of a group is the sum of its
    /// per-shard rates.
    pub fn absorb(&mut self, other: &GroupRates) {
        for (g, &(d, c)) in &other.counts {
            let e = self.counts.entry(g.clone()).or_insert((0, 0));
            e.0 += d;
            e.1 += c;
        }
    }
}

/// Running statistics for a [`crate::ChronicleDb`].
#[derive(Debug, Clone, Default)]
pub struct DbStats {
    /// Number of append batches processed.
    pub appends: u64,
    /// Total tuples appended.
    pub tuples_appended: u64,
    /// Relation mutations (insert/update/delete) that drove view
    /// maintenance.
    pub relation_changes: u64,
    /// Total nanoseconds spent in maintenance.
    pub maintenance_nanos: u64,
    /// Worst single-append maintenance time.
    pub max_maintenance_nanos: u64,
    /// Total views maintained (sum over appends of affected views).
    pub views_maintained: u64,
    /// Views skipped by the router's guard filter.
    pub skipped_by_guard: u64,
    /// Views skipped by the router's interval filter.
    pub skipped_by_interval: u64,
    /// Views maintained through the vectorized columnar kernels (subset of
    /// `views_maintained`; zero under `CHRONICLE_MUTATE=scalar_fallback`
    /// or `BatchMode::Scalar`).
    pub vectorized_views: u64,
    /// Aggregate work counters across all maintenance.
    pub work: WorkCounter,
    /// Decayed per-group append rates — what the heavy-light placement
    /// classifier reads (DESIGN.md §16).
    pub group_rates: GroupRates,
    /// Records written to the write-ahead log.
    pub wal_records: u64,
    /// Bytes written to the write-ahead log.
    pub wal_bytes: u64,
    /// WAL flushes issued (group commit coalesces many records into one).
    pub wal_flushes: u64,
    /// Checkpoints taken (manual and automatic).
    pub checkpoints: u64,
    /// LSN of the checkpoint recovery started from, if the database was
    /// opened from disk and a checkpoint existed.
    pub recovery_checkpoint_lsn: Option<u64>,
    /// WAL-tail records replayed during the most recent recovery.
    pub recovery_replayed_records: u64,
    /// Invalid checkpoint files skipped (newest-first) during recovery.
    pub recovery_skipped_checkpoints: u64,
    /// What the most recent open salvaged; `Some` iff the database was
    /// opened with `RecoveryPolicy::Salvage` (aggregated across shards
    /// for a sharded database).
    pub salvage: Option<SalvageReport>,
    /// Network sessions accepted by a wire-protocol server fronting this
    /// database (client and follower connections alike).
    pub net_sessions: u64,
    /// Wire frames received from peers.
    pub net_frames_in: u64,
    /// Wire frames sent to peers.
    pub net_frames_out: u64,
    /// WAL bytes shipped to followers (segment payload, not framing).
    pub net_shipped_bytes: u64,
    /// Network requests served (SQL round trips over the wire).
    pub net_requests: u64,
    /// Retried statements answered from the idempotent-session dedupe
    /// cache instead of re-executing (DESIGN.md §17).
    pub session_replays: u64,
    /// Requests refused with `Overloaded` by the server's bounded
    /// admission queue instead of blocking the session thread.
    pub overload_rejections: u64,
    /// On a follower: the highest WAL lsn applied (max across shards).
    /// `None` on a leader or an embedded database.
    pub follower_applied_lsn: Option<u64>,
    /// On a follower: worst per-shard gap between the leader's last
    /// reported durable lsn and this follower's applied lsn. `None` when
    /// no leader heartbeat has been seen.
    pub replication_lag: Option<u64>,
    /// Per-append maintenance latencies (see [`LatencySample`]).
    latencies: LatencySample,
    /// Per-request network service latencies (see [`LatencySample`]).
    net_latencies: LatencySample,
}

impl DbStats {
    /// Fold one append's report into the stats. `group` is the chronicle
    /// group the batch landed in; its decayed rate counter feeds the
    /// heavy-light placement classifier.
    pub fn record_append(&mut self, group: &str, tuples: usize, report: &MaintenanceReport) {
        self.appends += 1;
        self.tuples_appended += tuples as u64;
        self.group_rates.record(group, tuples as u64);
        self.maintenance_nanos += report.elapsed_nanos;
        self.max_maintenance_nanos = self.max_maintenance_nanos.max(report.elapsed_nanos);
        self.views_maintained += report.views.len() as u64;
        self.skipped_by_guard += report.routing.skipped_guard as u64;
        self.skipped_by_interval += report.routing.skipped_interval as u64;
        self.vectorized_views += report.vectorized_views as u64;
        self.work.absorb(report.total_work);
        self.latencies.record(report.elapsed_nanos);
    }

    /// Record one served network request (SQL round trip) and its
    /// service latency.
    pub fn record_net_request(&mut self, nanos: u64) {
        self.net_requests += 1;
        self.net_latencies.record(nanos);
    }

    /// Fold one relation mutation's maintenance report into the stats.
    /// Relation changes share the work counters with appends (Theorem 4.1
    /// accounting is uniform over signed deltas) but are tallied — and
    /// latency-sampled — separately from append batches.
    pub fn record_relation_change(&mut self, report: &MaintenanceReport) {
        self.relation_changes += 1;
        self.maintenance_nanos += report.elapsed_nanos;
        self.max_maintenance_nanos = self.max_maintenance_nanos.max(report.elapsed_nanos);
        self.views_maintained += report.views.len() as u64;
        self.work.absorb(report.total_work);
    }

    /// Fold another database's statistics into this one — the cross-shard
    /// aggregation used by `ShardedDb::stats`. Counters add, maxima take
    /// the max, and the latency reservoirs merge (every shard's retained
    /// observations are re-offered, so a full receiver keeps admitting
    /// them proportionally instead of dropping late shards wholesale), so
    /// percentiles over the merged snapshot draw on the retained
    /// observations of every shard. The
    /// merged value is a read-only snapshot: feeding it further
    /// `record_append` calls would interleave with the foreign samples.
    pub fn absorb(&mut self, other: &DbStats) {
        self.appends += other.appends;
        self.tuples_appended += other.tuples_appended;
        self.relation_changes += other.relation_changes;
        self.maintenance_nanos += other.maintenance_nanos;
        self.max_maintenance_nanos = self.max_maintenance_nanos.max(other.max_maintenance_nanos);
        self.views_maintained += other.views_maintained;
        self.skipped_by_guard += other.skipped_by_guard;
        self.skipped_by_interval += other.skipped_by_interval;
        self.vectorized_views += other.vectorized_views;
        self.work.absorb(other.work);
        self.group_rates.absorb(&other.group_rates);
        self.wal_records += other.wal_records;
        self.wal_bytes += other.wal_bytes;
        self.wal_flushes += other.wal_flushes;
        self.checkpoints += other.checkpoints;
        self.recovery_checkpoint_lsn =
            match (self.recovery_checkpoint_lsn, other.recovery_checkpoint_lsn) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            };
        self.recovery_replayed_records += other.recovery_replayed_records;
        self.recovery_skipped_checkpoints += other.recovery_skipped_checkpoints;
        match (self.salvage.as_mut(), other.salvage.as_ref()) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.salvage = Some(theirs.clone()),
            _ => {}
        }
        self.net_sessions += other.net_sessions;
        self.net_frames_in += other.net_frames_in;
        self.net_frames_out += other.net_frames_out;
        self.net_shipped_bytes += other.net_shipped_bytes;
        self.net_requests += other.net_requests;
        self.session_replays += other.session_replays;
        self.overload_rejections += other.overload_rejections;
        self.follower_applied_lsn = match (self.follower_applied_lsn, other.follower_applied_lsn) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.replication_lag = match (self.replication_lag, other.replication_lag) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        self.latencies.absorb(&other.latencies);
        self.net_latencies.absorb(&other.net_latencies);
    }

    /// Mean maintenance time per append, nanoseconds.
    pub fn mean_maintenance_nanos(&self) -> f64 {
        if self.appends == 0 {
            0.0
        } else {
            self.maintenance_nanos as f64 / self.appends as f64
        }
    }

    /// Maintenance-latency percentile (e.g. `0.5`, `0.99`) over the
    /// retained per-append sample.
    ///
    /// The sorted view is cached: repeated percentile queries between
    /// appends cost O(1) instead of re-sorting the sample every call.
    pub fn latency_percentile(&self, q: f64) -> u64 {
        self.latencies.percentile(q)
    }

    /// Network request-latency percentile over the retained sample
    /// recorded by [`DbStats::record_net_request`].
    pub fn net_latency_percentile(&self, q: f64) -> u64 {
        self.net_latencies.percentile(q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_views::RoutingDecision;

    fn report(nanos: u64) -> MaintenanceReport {
        MaintenanceReport {
            routing: RoutingDecision {
                candidates: 2,
                skipped_interval: 1,
                skipped_guard: 1,
                selected: vec![],
            },
            views: vec![],
            vectorized_views: 0,
            total_work: WorkCounter::default(),
            elapsed_nanos: nanos,
        }
    }

    #[test]
    fn records_and_averages() {
        let mut s = DbStats::default();
        s.record_append("g", 3, &report(100));
        s.record_append("g", 1, &report(300));
        assert_eq!(s.appends, 2);
        assert_eq!(s.tuples_appended, 4);
        assert_eq!(s.maintenance_nanos, 400);
        assert_eq!(s.max_maintenance_nanos, 300);
        assert_eq!(s.skipped_by_guard, 2);
        assert_eq!(s.skipped_by_interval, 2);
        assert!((s.mean_maintenance_nanos() - 200.0).abs() < f64::EPSILON);
    }

    #[test]
    fn percentiles() {
        let mut s = DbStats::default();
        for i in 1..=100u64 {
            s.record_append("g", 1, &report(i));
        }
        assert_eq!(s.latency_percentile(0.0), 1);
        assert_eq!(s.latency_percentile(1.0), 100);
        let p50 = s.latency_percentile(0.5);
        assert!((49..=52).contains(&p50));
        assert_eq!(DbStats::default().latency_percentile(0.5), 0);
    }

    #[test]
    fn reservoir_stays_bounded() {
        let mut s = DbStats::default();
        for i in 0..10_000u64 {
            s.record_append("g", 1, &report(i));
        }
        assert!(s.latencies.len() <= SAMPLE);
        assert_eq!(s.appends, 10_000);
    }

    #[test]
    fn percentile_cache_tracks_new_data() {
        let mut s = DbStats::default();
        s.record_append("g", 1, &report(10));
        assert_eq!(s.latency_percentile(1.0), 10);
        // A second query with no new data must not change the answer…
        assert_eq!(s.latency_percentile(1.0), 10);
        // …and new data must invalidate the cache.
        s.record_append("g", 1, &report(999));
        assert_eq!(s.latency_percentile(1.0), 999);
    }

    #[test]
    fn absorb_merges_counters_and_samples() {
        let mut a = DbStats::default();
        let mut b = DbStats::default();
        a.record_append("g", 2, &report(100));
        b.record_append("g", 3, &report(500));
        b.record_append("g", 1, &report(300));
        b.wal_records = 7;
        b.recovery_checkpoint_lsn = Some(42);
        a.absorb(&b);
        assert_eq!(a.appends, 3);
        assert_eq!(a.tuples_appended, 6);
        assert_eq!(a.max_maintenance_nanos, 500);
        assert_eq!(a.wal_records, 7);
        assert_eq!(a.recovery_checkpoint_lsn, Some(42));
        // Percentiles see the union of both samples.
        assert_eq!(a.latency_percentile(0.0), 100);
        assert_eq!(a.latency_percentile(1.0), 500);
    }

    #[test]
    fn absorb_caps_merged_sample() {
        let mut a = DbStats::default();
        let mut b = DbStats::default();
        for i in 0..SAMPLE as u64 {
            a.record_append("g", 1, &report(i));
            b.record_append("g", 1, &report(i));
        }
        a.absorb(&b);
        assert_eq!(a.appends, 2 * SAMPLE as u64);
        assert!(a.latencies.len() <= SAMPLE);
    }

    #[test]
    fn reservoir_tracks_a_mid_run_distribution_shift() {
        // Shift the latency distribution mid-run: 3×SAMPLE fast appends
        // (~1µs) followed by 3×SAMPLE slow ones (~1ms). A most-recent
        // ring would retain only the slow tail; the old stop-once-full
        // merge retained only the fast head. The reservoir keeps both
        // regimes in proportion, deterministically (seeded draws).
        let mut s = DbStats::default();
        for _ in 0..3 * SAMPLE {
            s.record_append("g", 1, &report(1_000));
        }
        for _ in 0..3 * SAMPLE {
            s.record_append("g", 1, &report(1_000_000));
        }
        assert!(s.latencies.len() <= SAMPLE);
        assert_eq!(
            s.latency_percentile(0.05),
            1_000,
            "early (fast) regime must still be sampled"
        );
        assert_eq!(
            s.latency_percentile(0.95),
            1_000_000,
            "late (slow) regime must be sampled too"
        );
        let slow = s
            .latencies
            .samples
            .iter()
            .filter(|&&v| v == 1_000_000)
            .count();
        let frac = slow as f64 / s.latencies.len() as f64;
        assert!(
            (0.40..=0.60).contains(&frac),
            "half the observations were slow, but the reservoir retains {frac:.2}"
        );
    }

    #[test]
    fn absorb_admits_a_full_peer_instead_of_dropping_it() {
        // Regression for the stop-once-full merge: once `a` was full,
        // `b`'s observations vanished from the merged percentiles.
        let mut a = DbStats::default();
        let mut b = DbStats::default();
        for _ in 0..SAMPLE as u64 {
            a.record_append("g", 1, &report(1_000));
            b.record_append("g", 1, &report(1_000_000));
        }
        a.absorb(&b);
        assert!(a.latencies.len() <= SAMPLE);
        assert_eq!(
            a.latency_percentile(0.95),
            1_000_000,
            "the absorbed shard's observations must survive the merge"
        );
        let slow = a
            .latencies
            .samples
            .iter()
            .filter(|&&v| v == 1_000_000)
            .count();
        let frac = slow as f64 / a.latencies.len() as f64;
        assert!(
            (0.40..=0.60).contains(&frac),
            "both shards contributed equally, but the merge retains {frac:.2}"
        );
    }

    #[test]
    fn net_requests_have_their_own_percentiles() {
        let mut s = DbStats::default();
        s.record_append("g", 1, &report(5));
        for i in 1..=100u64 {
            s.record_net_request(i * 1000);
        }
        assert_eq!(s.net_requests, 100);
        assert_eq!(s.net_latency_percentile(0.0), 1000);
        assert_eq!(s.net_latency_percentile(1.0), 100_000);
        // The maintenance sample is untouched by network traffic.
        assert_eq!(s.latency_percentile(1.0), 5);
    }

    #[test]
    fn group_rates_track_decay_and_dominance() {
        let mut r = GroupRates::default();
        // One planning interval: hot gets 3 tuples per batch, cold gets 1
        // every 8th batch.
        for i in 0..1024u64 {
            r.record("hot", 3);
            if i % 8 == 0 {
                r.record("cold", 1);
            }
        }
        assert!(r.rate("hot") > r.rate("cold") * 10);
        assert_eq!(r.rate("absent"), 0);
        assert_eq!(r.total(), r.rate("hot") + r.rate("cold"));
        let hot_before = r.rate("hot");
        // Planner-driven decay: intervals of silence on `hot` halve it
        // towards zero and eventually drop it from the table entirely.
        // (The first fold only rolls `current` into `decayed`, so four
        // intervals shrink the rate by 2³.)
        for _ in 0..4 {
            r.decay();
            for _ in 0..64 {
                r.record("cold", 1);
            }
        }
        assert!(r.rate("hot") < hot_before / 4);
        for _ in 0..20 {
            r.decay();
            r.record("cold", 1);
        }
        assert_eq!(r.rate("hot"), 0, "a dead group's rate fully decays");
        assert!(
            r.iter().all(|(g, _)| g == "cold"),
            "fully decayed groups leave the table"
        );
    }

    #[test]
    fn group_rates_absorb_sums_per_shard_rates() {
        let mut a = GroupRates::default();
        let mut b = GroupRates::default();
        a.record("g0", 5);
        a.record("shared", 2);
        b.record("shared", 7);
        b.record("g1", 1);
        let (ra, rb) = (a.clone(), b.clone());
        a.absorb(&b);
        assert_eq!(a.rate("shared"), ra.rate("shared") + rb.rate("shared"));
        assert_eq!(a.rate("g0"), 5);
        assert_eq!(a.rate("g1"), 1);
        assert_eq!(a.total(), ra.total() + rb.total());
        // Determinism: iteration is name-ordered regardless of insertion.
        let names: Vec<&str> = a.iter().map(|(g, _)| g).collect();
        assert_eq!(names, vec!["g0", "g1", "shared"]);
    }

    #[test]
    fn appends_feed_the_group_rate_table() {
        let mut s = DbStats::default();
        s.record_append("telecom", 3, &report(100));
        s.record_append("telecom", 2, &report(100));
        s.record_append("banking", 1, &report(100));
        assert_eq!(s.group_rates.rate("telecom"), 5);
        assert_eq!(s.group_rates.rate("banking"), 1);
        let mut t = DbStats::default();
        t.record_append("banking", 4, &report(50));
        s.absorb(&t);
        assert_eq!(s.group_rates.rate("banking"), 5, "absorb merges rates");
    }

    #[test]
    fn absorb_merges_net_counters() {
        let mut a = DbStats::default();
        let mut b = DbStats::default();
        a.net_sessions = 2;
        a.net_frames_in = 10;
        a.replication_lag = Some(3);
        b.net_sessions = 1;
        b.net_frames_out = 7;
        b.net_shipped_bytes = 4096;
        b.follower_applied_lsn = Some(41);
        b.replication_lag = Some(9);
        b.record_net_request(500);
        a.absorb(&b);
        assert_eq!(a.net_sessions, 3);
        assert_eq!(a.net_frames_in, 10);
        assert_eq!(a.net_frames_out, 7);
        assert_eq!(a.net_shipped_bytes, 4096);
        assert_eq!(a.net_requests, 1);
        assert_eq!(a.follower_applied_lsn, Some(41));
        assert_eq!(
            a.replication_lag,
            Some(9),
            "lag aggregates as the worst shard"
        );
        assert_eq!(a.net_latency_percentile(0.5), 500);
    }
}
