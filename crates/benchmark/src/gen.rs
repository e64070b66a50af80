//! The common schema, the seeded input ring, and the reference fold every
//! workload's views are compared against.

use std::collections::HashMap;

use chronicle_types::{Tuple, Value};

use crate::rng::Rng;

/// Distinct accounts: four views × 65 536 groups is far larger than L2, so
/// maintenance pays real cache misses — the regime the paper's per-append
/// bound is about. (`--smoke` shrinks it; see `Params::accounts`.)
pub const ACCOUNTS: u64 = 65_536;
pub const REGIONS: u64 = 16;
pub const PLANS: u64 = 8;
/// `v_peak` is guarded by `region = PEAK_REGION`: the §5.2 router skips it
/// for 15/16 of one-row appends.
pub const PEAK_REGION: i64 = 3;

/// RNG streams of one seed.
const STREAM_PLANS: u64 = 1;
const STREAM_KEYS: u64 = 2;
const STREAM_RING: u64 = 16;

/// The four views of part `part`, in the order [`Oracle`] holds them.
pub const VIEWS: [&str; 4] = ["v_acct", "v_region", "v_plan", "v_peak"];

pub fn chronicle_name(part: usize) -> String {
    format!("calls{part}")
}

pub fn view_name(view: &str, part: usize) -> String {
    format!("{view}{part}")
}

pub const RELATION_DDL: &str = "CREATE RELATION customers (cust INT, plan INT, PRIMARY KEY (cust))";

/// DDL of part `part` (one chronicle group, one chronicle, four views). The
/// views span the paper's classes: `v_acct` is SCA₁ (SUM, COUNT),
/// `v_region` adds a selection, `v_plan` a key join with the relation
/// (SCA⋈), and `v_peak` a guard the router can test per tuple.
pub fn part_ddl(part: usize, group: &str) -> Vec<String> {
    let c = chronicle_name(part);
    vec![
        format!("CREATE GROUP {group}"),
        format!("CREATE CHRONICLE {c} (sn SEQ, acct INT, region INT, minutes FLOAT) IN GROUP {group}"),
        format!("CREATE VIEW v_acct{part} AS SELECT acct, SUM(minutes) AS total, COUNT(*) AS n FROM {c} GROUP BY acct"),
        format!("CREATE VIEW v_region{part} AS SELECT region, SUM(minutes) AS total FROM {c} WHERE minutes > 10 GROUP BY region"),
        format!("CREATE VIEW v_plan{part} AS SELECT plan, SUM(minutes) AS total FROM {c} JOIN customers ON acct = cust GROUP BY plan"),
        format!("CREATE VIEW v_peak{part} AS SELECT acct, MAX(minutes) AS peak FROM {c} WHERE region = {PEAK_REGION} GROUP BY acct"),
    ]
}

/// `plan` of every account, indexed by account.
pub fn plans(seed: u64, accounts: u64) -> Vec<i64> {
    let mut rng = Rng::new(seed, STREAM_PLANS);
    (0..accounts).map(|_| rng.below(PLANS) as i64).collect()
}

/// The relation load as multi-row `INSERT` statements of `chunk` rows.
pub fn relation_inserts(plans: &[i64], chunk: usize) -> Vec<String> {
    plans
        .chunks(chunk)
        .enumerate()
        .map(|(i, c)| {
            let rows: Vec<String> = c
                .iter()
                .enumerate()
                .map(|(j, p)| format!("({}, {p})", i * chunk + j))
                .collect();
            format!("INSERT INTO customers VALUES {}", rows.join(", "))
        })
        .collect()
}

/// Lookup keys for the query phase.
pub fn lookup_keys(seed: u64, part: usize, accounts: u64, n: usize) -> Vec<i64> {
    let mut rng = Rng::new(seed, STREAM_KEYS + 2 * part as u64);
    (0..n).map(|_| rng.below(accounts) as i64).collect()
}

pub fn lookup_sql(part: usize, acct: i64) -> String {
    format!("SELECT * FROM v_acct{part} WHERE acct = {acct}")
}

/// The rows set-up appends to every part before anything is timed: one per
/// account, all in [`PEAK_REGION`], so `v_acct` and `v_peak` hold every
/// group from the first timed operation on. Without it view size — and with
/// it lookup and maintenance cost — would grow with however many appends a
/// run manages, coupling every metric to append throughput.
pub fn preload(accounts: u64) -> Vec<Vec<Value>> {
    (0..accounts as i64)
        .map(|a| vec![Value::Int(a), Value::Int(PEAK_REGION), Value::Float(0.5)])
        .collect()
}

/// One producer's pre-generated input: `rows / batch` batches of `batch`
/// SN-less rows `[acct, region, minutes]`, cycled for as long as the timed
/// phase lasts. `minutes` is a multiple of 0.5 so every SUM is exact and
/// independent of the order rows were applied in.
pub struct Ring {
    pub batches: Vec<Vec<Vec<Value>>>,
}

impl Ring {
    pub fn generate(seed: u64, part: usize, accounts: u64, rows: usize, batch: usize) -> Ring {
        let mut rng = Rng::new(seed, STREAM_RING + part as u64);
        let batches = (0..rows / batch)
            .map(|_| {
                (0..batch)
                    .map(|_| {
                        vec![
                            Value::Int(rng.below(accounts) as i64),
                            Value::Int(rng.below(REGIONS) as i64),
                            Value::Float((1 + rng.below(120)) as f64 * 0.5),
                        ]
                    })
                    .collect()
            })
            .collect();
        Ring { batches }
    }

    pub fn batch(&self, op: u64) -> &Vec<Vec<Value>> {
        &self.batches[(op % self.batches.len() as u64) as usize]
    }

    /// The statement a wire client sends for a one-row batch.
    pub fn append_sql(&self, part: usize, op: u64) -> String {
        match self.batch(op)[0].as_slice() {
            [Value::Int(a), Value::Int(r), Value::Float(m)] => {
                format!("APPEND INTO calls{part} VALUES ({a}, {r}, {m:.1})")
            }
            _ => unreachable!("ring rows are [Int, Int, Float]"),
        }
    }
}

/// One view's expected content: key → (aggregate, count). Only `v_acct`
/// has a count column; the others leave it 0.
type Summary = HashMap<i64, (f64, i64)>;

/// The driver-side reference: a plain fold of what was appended.
#[derive(Default)]
pub struct Oracle {
    views: [Summary; 4],
}

impl Oracle {
    /// Fold the preload and the first `ops` batches a producer cycled out
    /// of `ring`.
    pub fn of(ring: &Ring, ops: u64, plans: &[i64]) -> Oracle {
        let mut o = Oracle::default();
        for row in preload(plans.len() as u64) {
            o.add(&row, 1, plans);
        }
        let n = ring.batches.len() as u64;
        for (i, batch) in ring.batches.iter().enumerate() {
            let times = ops / n + u64::from((i as u64) < ops % n);
            if times == 0 {
                continue;
            }
            for row in batch {
                o.add(row, times, plans);
            }
        }
        o
    }

    fn add(&mut self, row: &[Value], times: u64, plans: &[i64]) {
        let (acct, region, minutes) = match row {
            [Value::Int(a), Value::Int(r), Value::Float(m)] => (*a, *r, *m),
            _ => unreachable!("ring rows are [Int, Int, Float]"),
        };
        let sum = minutes * times as f64;
        let [v_acct, v_region, v_plan, v_peak] = &mut self.views;
        let e = v_acct.entry(acct).or_default();
        e.0 += sum;
        e.1 += times as i64;
        if minutes > 10.0 {
            v_region.entry(region).or_default().0 += sum;
        }
        v_plan.entry(plans[acct as usize]).or_default().0 += sum;
        if region == PEAK_REGION {
            let e = v_peak.entry(acct).or_insert((f64::MIN, 0));
            e.0 = e.0.max(minutes);
        }
    }

    /// Compare all four views of `part`, read through `query`, with the
    /// fold; returns one line per view that differs.
    pub fn mismatches(
        &self,
        part: usize,
        query: impl Fn(&str) -> chronicle_types::Result<Vec<Tuple>>,
    ) -> Vec<String> {
        let mut bad = Vec::new();
        for (view, want) in VIEWS.iter().zip(&self.views) {
            let name = view_name(view, part);
            match query(&name) {
                Ok(rows) => {
                    let got: Summary = rows.iter().map(summary_row).collect();
                    if got != *want {
                        bad.push(format!(
                            "{name}: engine has {} groups, reference {} and they differ",
                            got.len(),
                            want.len()
                        ));
                    }
                }
                Err(e) => bad.push(format!("{name}: {e}")),
            }
        }
        bad
    }
}

fn summary_row(t: &Tuple) -> (i64, (f64, i64)) {
    let key = t.get(0).as_int().expect("view key is INT");
    let agg = t.get(1).as_float().expect("aggregate is numeric");
    let n = if t.arity() > 2 {
        t.get(2).as_int().expect("COUNT is INT")
    } else {
        0
    };
    (key, (agg, n))
}
