//! Latency samples, throughput windows, and the metric records printed at
//! the end of a run.

use std::time::{Duration, Instant};

/// Throughput is the median over windows of this length; the first window
/// (warm-up) and the last (partial) are dropped, so one noisy neighbour
/// burst moves one window, not the result.
pub const WINDOW: Duration = Duration::from_secs(1);

/// Per-operation latencies in nanoseconds (u32: up to 4.29 s, far above
/// any operation here; a longer stall saturates).
#[derive(Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, d: Duration) {
        self.0.push(u32::try_from(d.as_nanos()).unwrap_or(u32::MAX));
    }

    pub fn absorb(&mut self, other: Samples) {
        self.0.extend(other.0);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Median in microseconds: mean of the two middle samples when even, so
    /// the reading keeps sub-nanosecond digits.
    pub fn p50_us(&mut self) -> f64 {
        let n = self.0.len();
        if n == 0 {
            return 0.0;
        }
        let hi = *self.0.select_nth_unstable(n / 2).1 as f64;
        let lo = if n.is_multiple_of(2) {
            *self.0.select_nth_unstable(n / 2 - 1).1 as f64
        } else {
            hi
        };
        (lo + hi) / 2.0 / 1e3
    }

    /// The highest percentile with at least ten samples beyond it, as
    /// `(percentile, microseconds)`. A diagnostic, never gated: identical
    /// runs moved p99 by 20% on the host this was written on.
    pub fn tail_us(&mut self) -> Option<(f64, f64)> {
        let n = self.0.len();
        if n < 20 {
            return None;
        }
        let v = *self.0.select_nth_unstable(n - 11).1;
        Some((100.0 * (1.0 - 10.0 / n as f64), v as f64 / 1e3))
    }
}

/// Tuples completed per [`WINDOW`] since the phase began.
#[derive(Default)]
pub struct Windows(Vec<u64>);

impl Windows {
    pub fn record(&mut self, since_start: Duration, tuples: u64) {
        let i = (since_start.as_nanos() / WINDOW.as_nanos()) as usize;
        if i >= self.0.len() {
            self.0.resize(i + 1, 0);
        }
        self.0[i] += tuples;
    }

    pub fn absorb(&mut self, other: &Windows) {
        if other.0.len() > self.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a += b;
        }
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn counts(&self) -> &[u64] {
        &self.0
    }

    /// Median tuples/s over the full windows, and how many there were. A
    /// phase too short to have any full window (smoke runs) falls back to
    /// `total / elapsed`.
    pub fn median_per_s(&self, elapsed: Duration) -> (f64, usize) {
        let full = (elapsed.as_nanos() / WINDOW.as_nanos()) as usize;
        if full < 3 {
            return (self.total() as f64 / elapsed.as_secs_f64(), 0);
        }
        let mut w: Vec<f64> = self.0[1..full.min(self.0.len())]
            .iter()
            .map(|&t| t as f64 / WINDOW.as_secs_f64())
            .collect();
        (median(&mut w), w.len())
    }
}

pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median wall time of `f` over `reps` calls, in nanoseconds per `per`.
pub fn time_ns_per(reps: usize, per: usize, mut f: impl FnMut()) -> f64 {
    let mut t: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_nanos() as f64 / per as f64
        })
        .collect();
    median(&mut t)
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How it was obtained (sample count, percentile…), for the printed
    /// table only.
    pub note: String,
}

impl Metric {
    pub fn new(
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) -> Metric {
        Metric {
            name,
            value,
            unit,
            note: note.into(),
        }
    }
}

/// What one run of one workload reports.
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Printed, never gated, not in the result line.
    pub diagnostics: Vec<String>,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Every metric by name, the diagnostics, and last the result line.
    pub fn print(&self, header: &str) {
        println!("{header}");
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.4} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        for d in &self.diagnostics {
            println!("  {d}");
        }
        println!(
            "  failed_ops {} / attempted_ops {}",
            self.failed, self.attempted
        );
        println!(
            "{}",
            result_json(self.correct, self.attempted, self.failed, &self.metrics)
        );
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

/// The result line the driver reads: one JSON object, last on stdout.
fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// JSON has no NaN/inf; a non-finite reading is a bug the smoke test
/// catches, and `null` makes it loud for any consumer.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}
