//! Property-based oracle equivalence: for randomly generated SCA views and
//! randomly generated append/update histories, incremental maintenance
//! produces exactly the same relation as from-scratch evaluation with full
//! temporal-join semantics.
//!
//! This is the strongest correctness statement in the test suite: it
//! covers σ/Π/∪/−/⋈SN/GROUPBY-SN, both summarization forms, key joins and
//! products against a relation that is being proactively updated mid-run.

use chronicle_testkit::prop::{
    boxed, floats, from_fn, ints, map, pair, triple, vec_of, weighted, Gen,
};
use chronicle_testkit::{prop_assert, prop_assert_eq, prop_test, Rng, TempDir, Zipf};

use chronicle::algebra::eval::{canon, eval_sca, seq_to_int};
use chronicle::algebra::{
    Accumulator, AggFunc, AggSpec, CaExpr, CmpOp, Predicate, RelationRef, ScaExpr,
};
use chronicle::db::{ChronicleDb, ShardedDb};
use chronicle::prelude::*;
use chronicle::views::{BatchMode, SlidingWindow};

/// A compact description of a generated view, turned into a real `ScaExpr`
/// against the live catalog.
#[derive(Debug, Clone)]
struct ViewSpec {
    /// 0 = calls only, 1 = union, 2 = diff(all, selected), 3 = joinSN.
    shape: u8,
    select_threshold: Option<f64>,
    rel_op: u8, // 0 = none, 1 = key join, 2 = product
    summarize_group: bool,
    agg: u8, // 0 sum, 1 count, 2 min, 3 max, 4 avg
}

#[derive(Debug, Clone)]
enum Op {
    /// Append (caller, minutes) to calls (plus mirrored texts tuple for
    /// multi-chronicle shapes).
    Append {
        caller: i64,
        minutes: f64,
        batch2: bool,
    },
    /// Proactively update the rate of `acct`.
    UpdateRate { acct: i64, rate: f64 },
}

fn view_gen() -> impl Gen<Value = ViewSpec> {
    from_fn(
        |rng| ViewSpec {
            shape: rng.gen_range(0..4u8),
            select_threshold: if rng.gen_bool(0.5) {
                Some(rng.gen_range(0.0..8.0f64))
            } else {
                None
            },
            rel_op: rng.gen_range(0..3u8),
            summarize_group: rng.gen_bool(0.5),
            agg: rng.gen_range(0..5u8),
        },
        // Shrink one knob at a time toward the plainest view.
        |v| {
            let mut out = Vec::new();
            if v.shape != 0 {
                out.push(ViewSpec {
                    shape: 0,
                    ..v.clone()
                });
            }
            if v.select_threshold.is_some() {
                out.push(ViewSpec {
                    select_threshold: None,
                    ..v.clone()
                });
            }
            if v.rel_op != 0 {
                out.push(ViewSpec {
                    rel_op: 0,
                    ..v.clone()
                });
            }
            if v.summarize_group {
                out.push(ViewSpec {
                    summarize_group: false,
                    ..v.clone()
                });
            }
            if v.agg != 0 {
                out.push(ViewSpec {
                    agg: 0,
                    ..v.clone()
                });
            }
            out
        },
    )
}

fn op_gen() -> impl Gen<Value = Op> {
    weighted(vec![
        (
            4,
            boxed(map(
                triple(
                    ints(0..6i64),
                    floats(0.0..10.0),
                    chronicle_testkit::prop::bools(),
                ),
                |(caller, minutes, batch2)| Op::Append {
                    caller,
                    minutes,
                    batch2,
                },
            )),
        ),
        (
            1,
            boxed(map(
                pair(ints(0..6i64), floats(0.0..1.0)),
                |(acct, rate)| Op::UpdateRate { acct, rate },
            )),
        ),
    ])
}

fn build_db() -> ChronicleDb {
    let mut db = ChronicleDb::new();
    db.execute("CREATE GROUP g").unwrap();
    db.execute("CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP g RETAIN ALL")
        .unwrap();
    db.execute("CREATE CHRONICLE texts (sn SEQ, caller INT, minutes FLOAT) IN GROUP g RETAIN ALL")
        .unwrap();
    db.execute("CREATE RELATION rates (acct INT, rate FLOAT, PRIMARY KEY (acct))")
        .unwrap();
    for a in 0..6i64 {
        db.execute(&format!("INSERT INTO rates VALUES ({a}, 0.5)"))
            .unwrap();
    }
    db
}

fn build_expr(db: &ChronicleDb, spec: &ViewSpec) -> ScaExpr {
    let calls = db.catalog().chronicle_id("calls").unwrap();
    let texts = db.catalog().chronicle_id("texts").unwrap();
    let rates = db.catalog().relation_id("rates").unwrap();
    let calls_e = CaExpr::chronicle(db.catalog().chronicle(calls));
    let texts_e = CaExpr::chronicle(db.catalog().chronicle(texts));
    let schema = calls_e.schema().clone();

    let selected = |e: CaExpr, thr: f64| {
        let p =
            Predicate::attr_cmp_const(&schema, "minutes", CmpOp::Gt, Value::Float(thr)).unwrap();
        e.select(p).unwrap()
    };

    let mut expr = match spec.shape {
        0 => calls_e.clone(),
        1 => calls_e.clone().union(texts_e.clone()).unwrap(),
        2 => calls_e
            .clone()
            .diff(selected(texts_e.clone(), 5.0))
            .unwrap(),
        // SN self-join of two selections: the paper's "two operands derive
        // distinct tuples with the same sequence number" situation.
        _ => selected(calls_e.clone(), 2.0)
            .join_seq(selected(calls_e.clone(), 6.0))
            .unwrap(),
    };
    if let Some(thr) = spec.select_threshold {
        let p = Predicate::attr_cmp_const(expr.schema(), "minutes", CmpOp::Le, Value::Float(thr))
            .unwrap();
        expr = expr.select(p).unwrap();
    }
    let rel_schema = db.catalog().relation(rates).current().schema().clone();
    let rel = RelationRef::new(rates, rel_schema, "rates");
    expr = match spec.rel_op {
        1 => expr.join_rel_key(rel, &["caller"]).unwrap(),
        2 => expr.product(rel).unwrap(),
        _ => expr,
    };
    // Aggregate over the relation's `rate` column when the view joins a
    // relation, so the implicit temporal join's *values* (not just its
    // multiplicities) flow into the aggregates.
    let agg_attr = if spec.rel_op != 0 {
        expr.schema().position("rate").unwrap()
    } else {
        expr.schema().position("minutes").unwrap()
    };
    let agg = match spec.agg {
        0 => AggFunc::Sum(agg_attr),
        1 => AggFunc::CountStar,
        2 => AggFunc::Min(agg_attr),
        3 => AggFunc::Max(agg_attr),
        _ => AggFunc::Avg(agg_attr),
    };
    if spec.summarize_group {
        ScaExpr::group_agg(expr, &["caller"], vec![AggSpec::new(agg, "a")]).unwrap()
    } else {
        // Projection summarization over the caller column.
        ScaExpr::project(expr, &["caller"]).unwrap()
    }
}

/// Apply one generated op to the database; returns the updated chronon
/// clock.
fn apply_op(db: &mut ChronicleDb, i: usize, op: &Op, mut t: i64) -> i64 {
    match op {
        Op::Append {
            caller,
            minutes,
            batch2,
        } => {
            t += 1;
            // Round minutes to multiples of 0.5, which are exactly
            // representable: float sums are then order-independent
            // and the oracle comparison is exact.
            let m = (minutes * 2.0).round() / 2.0;
            let rows: Vec<Vec<Value>> = if *batch2 {
                vec![
                    vec![Value::Int(*caller), Value::Float(m)],
                    vec![Value::Int((*caller + 1) % 6), Value::Float(m + 0.5)],
                ]
            } else {
                vec![vec![Value::Int(*caller), Value::Float(m)]]
            };
            // Alternate target chronicle so joins/unions see data on
            // both sides.
            let target = if i % 3 == 2 { "texts" } else { "calls" };
            db.append(target, Chronon(t), &rows).unwrap();
        }
        Op::UpdateRate { acct, rate } => {
            let r = (rate * 2.0).round() / 2.0;
            db.execute(&format!(
                "UPDATE rates SET rate = {r:.1} WHERE acct = {acct}"
            ))
            .unwrap();
        }
    }
    t
}

prop_test! {
    fn incremental_equals_oracle(cases = 64, seed = 0x0AC1E;
        spec in view_gen(),
        ops in vec_of(op_gen(), 1..40),
        check_at in ints(0..40usize),
    ) {
        let mut db = build_db();
        let expr = build_expr(&db, &spec);
        db.create_view("v", expr).unwrap();

        let mut t = 0i64;
        for (i, op) in ops.iter().enumerate() {
            t = apply_op(&mut db, i, op, t);
            if i == check_at {
                let inc = canon(db.query_view("v").unwrap());
                let oracle = canon(
                    eval_sca(db.catalog(), db.maintainer().expr_of("v").unwrap())
                        .unwrap(),
                );
                prop_assert_eq!(inc, oracle, "divergence mid-history at op {}", i);
            }
        }
        let inc = canon(db.query_view("v").unwrap());
        let oracle = canon(
            eval_sca(db.catalog(), db.maintainer().expr_of("v").unwrap()).unwrap(),
        );
        prop_assert_eq!(inc, oracle, "divergence at end of history");
    }
}

prop_test! {
    /// Monotonicity (Theorem 4.1): before summarization, a chronicle view
    /// only ever grows, and only with the new sequence number.
    fn ca_views_are_monotonic(cases = 64, seed = 0x501D;
        ops in vec_of(op_gen(), 1..25),
    ) {
        let mut db = build_db();
        let calls = db.catalog().chronicle_id("calls").unwrap();
        let texts = db.catalog().chronicle_id("texts").unwrap();
        let expr = CaExpr::chronicle(db.catalog().chronicle(calls))
            .union(CaExpr::chronicle(db.catalog().chronicle(texts)))
            .unwrap();
        let mut prev: Vec<Tuple> = Vec::new();
        let mut t = 0i64;
        for (i, op) in ops.iter().enumerate() {
            if let Op::Append { caller, minutes, .. } = op {
                t += 1;
                let m = (minutes * 2.0).round() / 2.0;
                let target = if i % 2 == 0 { "calls" } else { "texts" };
                db.append(target, Chronon(t), &[vec![Value::Int(*caller), Value::Float(m)]])
                    .unwrap();
                let now = canon(chronicle::algebra::eval::eval_ca(db.catalog(), &expr).unwrap());
                // Every previous tuple is still present.
                for old in &prev {
                    prop_assert!(now.contains(old), "tuple retracted: {}", old);
                }
                // New tuples carry the newest sequence number.
                let hw = db.catalog().group(db.catalog().group_id("g").unwrap()).high_water();
                for tup in &now {
                    if !prev.contains(tup) {
                        prop_assert_eq!(expr.seq_of(tup).unwrap(), hw);
                    }
                }
                prev = now;
            }
        }
    }
}

// ===================================================================
// Z-set differential suite: signed deltas (inserts, updates, deletes)
// through relation-backed views, interleaved with chronicle appends and
// sliding-window advances, checked against full recomputation after
// every single operation.
// ===================================================================

/// One operation of a mixed DML schedule.
#[derive(Debug, Clone)]
enum Dml {
    /// Insert-or-update `acct` (an update arrives at the views as a
    /// `−old +new` Z-set pair).
    Upsert { acct: i64, region: i64, amount: f64 },
    /// Delete `acct` if present (a `−1` delta); a no-op otherwise.
    Delete { acct: i64 },
    /// Append one trade `advance` ticks after the previous one — crossing
    /// a bucket boundary advances the sliding window, retiring buckets as
    /// negative-weight deltas.
    Trade {
        acct: i64,
        amount: f64,
        advance: i64,
    },
}

fn dml_gen() -> impl Gen<Value = Dml> {
    weighted(vec![
        (
            3,
            boxed(map(
                triple(ints(0..8i64), ints(0..4i64), floats(0.0..10.0)),
                |(acct, region, amount)| Dml::Upsert {
                    acct,
                    region,
                    amount,
                },
            )),
        ),
        (2, boxed(map(ints(0..8i64), |acct| Dml::Delete { acct }))),
        (
            4,
            boxed(map(
                triple(ints(0..4i64), floats(0.0..10.0), ints(0..7i64)),
                |(acct, amount, advance)| Dml::Trade {
                    acct,
                    amount,
                    advance,
                },
            )),
        ),
    ])
}

/// DDL for the differential suite: one chronicle with a chronicle view,
/// one keyed relation with three relation-backed views — a group
/// aggregate, a pure projection (set semantics: the consolidation
/// teeth), and a conjunctive-WHERE aggregate (a stacked-σ `RelQuery`).
fn zset_ddl() -> Vec<&'static str> {
    vec![
        "CREATE CHRONICLE trades (sn SEQ, acct INT, amount FLOAT) RETAIN ALL",
        "CREATE RELATION accts (acct INT, region INT, amount FLOAT, PRIMARY KEY (acct))",
        "CREATE VIEW by_region AS SELECT region, SUM(amount) AS s, COUNT(*) AS n \
         FROM accts GROUP BY region",
        "CREATE VIEW regions AS SELECT region FROM accts",
        "CREATE VIEW rich AS SELECT region, AVG(amount) AS m FROM accts \
         WHERE amount > 4.0 AND region < 3 GROUP BY region",
        "CREATE VIEW volume AS SELECT acct, SUM(amount) AS v FROM trades GROUP BY acct",
    ]
}

fn build_zset_db() -> ChronicleDb {
    let mut db = ChronicleDb::new();
    for stmt in zset_ddl() {
        db.execute(stmt).unwrap();
    }
    db
}

/// Round to a multiple of 0.5: exactly representable, so float sums and
/// retractions are exact and the oracle comparison is equality.
fn half(x: f64) -> f64 {
    (x * 2.0).round() / 2.0
}

/// Render one op as the SQL statement(s) to execute, consulting
/// `reference` for key existence (so the same statements replay
/// identically on a second engine). Returns the SQL and the new clock.
fn dml_sql(reference: &ChronicleDb, op: &Dml, now: i64) -> (String, i64) {
    match op {
        Dml::Upsert {
            acct,
            region,
            amount,
        } => {
            let a = half(*amount);
            let rid = reference.catalog().relation_id("accts").unwrap();
            let exists = reference
                .catalog()
                .relation(rid)
                .current()
                .get_by_key(&[Value::Int(*acct)])
                .is_some();
            let sql = if exists {
                format!("UPDATE accts SET region = {region}, amount = {a:.1} WHERE acct = {acct}")
            } else {
                format!("INSERT INTO accts VALUES ({acct}, {region}, {a:.1})")
            };
            (sql, now)
        }
        Dml::Delete { acct } => (format!("DELETE FROM accts WHERE acct = {acct}"), now),
        Dml::Trade {
            acct,
            amount,
            advance,
        } => {
            let a = half(*amount);
            let t = now + advance;
            (
                format!("APPEND INTO trades AT {t} VALUES ({acct}, {a:.1})"),
                t,
            )
        }
    }
}

/// Every relation-backed view must equal a from-scratch `RelQuery::eval`
/// over the live relation, and the chronicle view its SCA oracle.
macro_rules! assert_views_match_oracle {
    ($db:expr) => {{
        let db = &$db;
        let rid = db.catalog().relation_id("accts").unwrap();
        for name in ["by_region", "regions", "rich"] {
            let v = db.maintainer().view_by_name(name).unwrap();
            let inc = canon(v.rows());
            let oracle = canon(
                v.query()
                    .unwrap()
                    .eval(db.catalog().relation(rid).current())
                    .unwrap(),
            );
            prop_assert_eq!(inc, oracle, "relation view `{}` diverged", name);
        }
        let inc = canon(db.query_view("volume").unwrap());
        let oracle =
            canon(eval_sca(db.catalog(), db.maintainer().expr_of("volume").unwrap()).unwrap());
        prop_assert_eq!(inc, oracle, "chronicle view `volume` diverged");
    }};
}

/// Sliding-window parameters shared by the incremental window and its
/// naive oracle: 4 buckets × 5 ticks, keyed on the account.
const WIN_BUCKETS: i64 = 4;
const WIN_TICKS: i64 = 5;

fn win_aggs() -> Vec<AggFunc> {
    vec![
        AggFunc::Sum(1),
        AggFunc::CountStar,
        AggFunc::Avg(1),
        AggFunc::Max(1),
    ]
}

/// Naive window recomputation: fold every logged in-window tuple for
/// `key` through fresh accumulators — no buckets, no running totals, no
/// unmerge. This is the recomputation the retirement deltas must match.
fn naive_window(log: &[(i64, Tuple)], key: i64, now: i64) -> Vec<Value> {
    let cur = now.div_euclid(WIN_TICKS);
    let oldest = cur - WIN_BUCKETS + 1;
    let mut accs: Vec<Accumulator> = win_aggs().iter().map(|&f| Accumulator::new(f)).collect();
    for (at, t) in log {
        let b = at.div_euclid(WIN_TICKS);
        if t.get(0) != &Value::Int(key) || b < oldest || b > cur {
            continue;
        }
        for a in accs.iter_mut() {
            a.update(t).unwrap();
        }
    }
    accs.iter().map(|a| seq_to_int(a.finalize())).collect()
}

prop_test! {
    /// The headline differential property: replay a seeded schedule of
    /// relation inserts/updates/deletes, chronicle appends, and window
    /// advances; after **every** operation the incremental state (signed
    /// Z-set deltas through the views, negative-delta bucket retirement
    /// in the window) must equal full recomputation.
    fn zset_deltas_equal_recomputation(cases = 256, seed = 0x25E7D1FF;
        ops in vec_of(dml_gen(), 1..48),
    ) {
        let mut db = build_zset_db();
        let mut win = SlidingWindow::new(
            Chronon(0),
            WIN_BUCKETS as usize,
            WIN_TICKS,
            vec![0],
            win_aggs(),
        )
        .unwrap();
        let mut log: Vec<(i64, Tuple)> = Vec::new();
        let mut now = 0i64;
        for op in &ops {
            let (sql, t) = dml_sql(&db, op, now);
            now = t;
            db.execute(&sql).unwrap();
            if let Dml::Trade { acct, amount, .. } = op {
                let row = Tuple::new(vec![Value::Int(*acct), Value::Float(half(*amount))]);
                win.insert(Chronon(now), &row).unwrap();
                log.push((now, row));
                for key in 0..4i64 {
                    prop_assert_eq!(
                        win.query(&[Value::Int(key)], Chronon(now)).unwrap(),
                        naive_window(&log, key, now),
                        "window diverged for key {} at chronon {}",
                        key,
                        now
                    );
                }
            }
            assert_views_match_oracle!(db);
        }
    }
}

/// Shard count for the sharded differential test; `SHARDS=n` overrides
/// (verify.sh runs the suite at `SHARDS=4`).
fn shard_count() -> usize {
    std::env::var("SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

prop_test! {
    /// The same mixed DML schedules against a hash-sharded engine:
    /// relation views pin to one shard and relation DML broadcasts, so
    /// sharded view snapshots must be byte-identical to the serial
    /// single-engine reference.
    fn sharded_zset_dml_matches_single_engine(cases = 160, seed = 0x54A2DED;
        ops in vec_of(dml_gen(), 1..40),
    ) {
        let mut reference = build_zset_db();
        let mut sharded = ShardedDb::new(shard_count()).unwrap();
        for stmt in zset_ddl() {
            sharded.execute(stmt).unwrap();
        }
        // "One shard via `From`": the single engine wrapped. The wrap
        // must be invisible down to the work counters.
        let mut wrapped = ShardedDb::from(build_zset_db());
        let mut now = 0i64;
        for op in &ops {
            let (sql, t) = dml_sql(&reference, op, now);
            now = t;
            reference.execute(&sql).unwrap();
            sharded.execute(&sql).unwrap();
            wrapped.execute(&sql).unwrap();
        }
        let mut expect = reference.snapshot_views();
        expect.sort();
        prop_assert_eq!(sharded.snapshot_views(), expect.clone());
        prop_assert_eq!(wrapped.snapshot_views(), expect);
        let (got, want) = (wrapped.stats(), reference.stats());
        prop_assert_eq!(got.work, want.work);
        prop_assert_eq!(got.appends, want.appends);
        prop_assert_eq!(got.relation_changes, want.relation_changes);
    }
}

// =================================================================
// Skewed-mix differential family: Zipf(θ)-distributed schedules over
// many chronicle groups, executed against a sharded engine whose
// placement is churned mid-history by explicit group moves and online
// heavy-light rebalances, compared per-op against the serial
// single-engine oracle. Placement is execution-only (Theorem 4.1 makes
// the group a self-contained maintenance unit), so every view snapshot
// must stay byte-identical to the reference no matter where groups
// land. A failing case prints its reproducing seed via the prop_test
// harness.
// =================================================================

/// Groups in the skewed family; rank 0 is the Zipf head ("celebrity"
/// group) and receives most appends, so rebalances have real rate skew
/// to classify against.
const SKEW_GROUPS: usize = 6;

/// The classic web/telecom skew exponent (matches experiment E18).
const SKEW_THETA: f64 = 1.1;

#[derive(Debug, Clone)]
enum SkewOp {
    /// Append to the chronicle of a Zipf-ranked group.
    Append { group: usize, k: i64, v: f64 },
    /// Insert-or-update a Zipf-ranked account in the broadcast relation.
    Upsert { acct: i64, amount: f64 },
    /// Delete a Zipf-ranked account if present.
    Delete { acct: i64 },
    /// Explicitly relocate one group (raw target, reduced mod shards).
    Move { group: usize, to: usize },
    /// Run the online heavy-light classifier over the live append rates.
    Rebalance,
}

fn skew_op_gen() -> impl Gen<Value = SkewOp> {
    let group_zipf = Zipf::new(SKEW_GROUPS, SKEW_THETA);
    let acct_zipf = Zipf::new(8, SKEW_THETA);
    let no_shrink = |_: &SkewOp| Vec::new();
    let g1 = group_zipf.clone();
    let a1 = acct_zipf.clone();
    let a2 = acct_zipf;
    weighted(vec![
        (
            8,
            boxed(from_fn(
                move |rng| SkewOp::Append {
                    group: g1.sample(rng),
                    k: rng.gen_range(0..6u64) as i64,
                    v: half(rng.gen_range(0..40u64) as f64 / 4.0),
                },
                no_shrink,
            )),
        ),
        (
            2,
            boxed(from_fn(
                move |rng| SkewOp::Upsert {
                    acct: a1.sample(rng) as i64,
                    amount: half(rng.gen_range(0..40u64) as f64 / 4.0),
                },
                no_shrink,
            )),
        ),
        (
            1,
            boxed(from_fn(
                move |rng| SkewOp::Delete {
                    acct: a2.sample(rng) as i64,
                },
                no_shrink,
            )),
        ),
        (
            2,
            boxed(from_fn(
                move |rng| SkewOp::Move {
                    group: rng.gen_range(0..SKEW_GROUPS as u64) as usize,
                    to: rng.gen_range(0..8u64) as usize,
                },
                no_shrink,
            )),
        ),
        (1, boxed(from_fn(|_| SkewOp::Rebalance, no_shrink))),
    ])
}

/// DDL for the skewed family: one chronicle + aggregate view per group,
/// a broadcast keyed relation with an aggregate view, and a join view
/// over the head group's chronicle so relocation must carry join state.
fn skew_ddl() -> Vec<String> {
    let mut ddl = Vec::new();
    for g in 0..SKEW_GROUPS {
        ddl.push(format!("CREATE GROUP zg{g}"));
        ddl.push(format!(
            "CREATE CHRONICLE zc{g} (sn SEQ, k INT, v FLOAT) IN GROUP zg{g} RETAIN ALL"
        ));
        ddl.push(format!(
            "CREATE VIEW zv{g} AS SELECT k, SUM(v) AS s FROM zc{g} GROUP BY k"
        ));
    }
    ddl.push("CREATE RELATION zr (acct INT, amount FLOAT, PRIMARY KEY (acct))".into());
    ddl.push("CREATE VIEW zr_total AS SELECT acct, SUM(amount) AS s FROM zr GROUP BY acct".into());
    ddl.push(
        "CREATE VIEW zjoin AS SELECT k, COUNT(*) AS n FROM zc0 JOIN zr ON k = acct GROUP BY k"
            .into(),
    );
    ddl
}

prop_test! {
    /// Per-op equivalence under placement churn: after **every** op —
    /// including each move and each rebalance — the sharded engine's
    /// complete view state must be byte-identical to the single-engine
    /// oracle's. 400 seeded cases; `SHARDS=n` overrides the topology.
    fn skewed_mix_heavy_light_matches_single_engine(cases = 400, seed = 0x5EED_21BF;
        ops in vec_of(skew_op_gen(), 1..24),
    ) {
        let shards = shard_count();
        let mut reference = ChronicleDb::new();
        let mut sharded = ShardedDb::new(shards).unwrap();
        for stmt in skew_ddl() {
            reference.execute(&stmt).unwrap();
            sharded.execute(&stmt).unwrap();
        }
        let mut now = 0i64;
        for (i, op) in ops.iter().enumerate() {
            match op {
                SkewOp::Append { group, k, v } => {
                    now += 1;
                    let sql = format!("APPEND INTO zc{group} AT {now} VALUES ({k}, {v:.2})");
                    reference.execute(&sql).unwrap();
                    sharded.execute(&sql).unwrap();
                }
                SkewOp::Upsert { acct, amount } => {
                    let rid = reference.catalog().relation_id("zr").unwrap();
                    let exists = reference
                        .catalog()
                        .relation(rid)
                        .current()
                        .get_by_key(&[Value::Int(*acct)])
                        .is_some();
                    let sql = if exists {
                        format!("UPDATE zr SET amount = {amount:.2} WHERE acct = {acct}")
                    } else {
                        format!("INSERT INTO zr VALUES ({acct}, {amount:.2})")
                    };
                    reference.execute(&sql).unwrap();
                    sharded.execute(&sql).unwrap();
                }
                SkewOp::Delete { acct } => {
                    let sql = format!("DELETE FROM zr WHERE acct = {acct}");
                    reference.execute(&sql).unwrap();
                    sharded.execute(&sql).unwrap();
                }
                // Placement ops touch only the sharded engine: they must
                // be invisible to logical state by construction.
                SkewOp::Move { group, to } => {
                    sharded
                        .move_group(&format!("zg{group}"), to % shards)
                        .unwrap();
                }
                SkewOp::Rebalance => {
                    sharded.rebalance().unwrap();
                }
            }
            let mut expect = reference.snapshot_views();
            expect.sort();
            prop_assert_eq!(
                sharded.snapshot_views(),
                expect,
                "sharded view state diverged from the oracle at op {} ({:?})",
                i,
                op
            );
        }
    }
}

// =================================================================
// Deterministic Z-set regression pins (PR-3 semantics + consolidation
// teeth for the `CHRONICLE_MUTATE=skip_consolidation` mutation check).
// =================================================================

/// A `+1/−1` pair on the same tuple must leave **no** residue in view
/// state: not a zero-multiplicity projected row, not a zero-live group,
/// and not a byte of difference in view snapshots. Under
/// `CHRONICLE_MUTATE=skip_consolidation` the zero-weight entries survive
/// and this test fails — verify.sh runs exactly that mutation and
/// requires the failure.
#[test]
fn plus_minus_pair_leaves_no_residue() {
    let mut db = build_zset_db();
    db.execute("INSERT INTO accts VALUES (1, 2, 6.0)").unwrap();
    db.execute("DELETE FROM accts WHERE acct = 1").unwrap();

    for name in ["by_region", "regions", "rich"] {
        let v = db.maintainer().view_by_name(name).unwrap();
        assert!(
            v.rows().is_empty(),
            "view `{name}` kept residue after +1/−1: {:?}",
            v.rows()
        );
        assert!(v.is_empty(), "view `{name}` state not empty after +1/−1");
    }
    assert_eq!(
        db.maintainer()
            .view_by_name("regions")
            .unwrap()
            .multiplicity(&Tuple::new(vec![Value::Int(2)])),
        None,
        "zero-weight multiplicity entry must be consolidated away"
    );
    // The snapshot bytes carry no residue entries either: restoring the
    // checkpoint payload of each view yields an empty state.
    for name in ["by_region", "regions", "rich"] {
        let v = db.maintainer().view_by_name(name).unwrap();
        let restored =
            PersistentView::restore(v.id(), name, v.def().clone(), &v.snapshot()).unwrap();
        assert!(
            restored.is_empty(),
            "snapshot of `{name}` restored to a non-empty state after +1/−1"
        );
    }
}

/// The durable variant: after an insert/delete pair, a checkpoint and a
/// restart must come back with empty relation views — checkpoints carry
/// no zero-weight residue either.
#[test]
fn plus_minus_pair_leaves_no_residue_in_checkpoints() {
    let tmp = TempDir::new("zset-residue");
    {
        let mut db = ChronicleDb::open(tmp.path()).unwrap();
        for stmt in zset_ddl() {
            db.execute(stmt).unwrap();
        }
        db.execute("INSERT INTO accts VALUES (1, 2, 6.0)").unwrap();
        db.execute("UPDATE accts SET amount = 7.5 WHERE acct = 1")
            .unwrap();
        db.execute("DELETE FROM accts WHERE acct = 1").unwrap();
        db.checkpoint().unwrap();
    }
    let db = ChronicleDb::open(tmp.path()).unwrap();
    for name in ["by_region", "regions", "rich"] {
        assert!(
            db.query_view(name).unwrap().is_empty(),
            "recovered view `{name}` kept +1/−1 residue through a checkpoint"
        );
        assert!(db.maintainer().view_by_name(name).unwrap().is_empty());
    }
}

/// PR-3 pin: appends strictly before the window anchor land in negative
/// bucket indices and a later-then-earlier insert is rejected with the
/// signed `NonMonotonicBucket` error — not wrapped to 2^64−k.
#[test]
fn before_anchor_appends_keep_signed_bucket_indices() {
    let mut win =
        SlidingWindow::new(Chronon(100), 3, 10, vec![0], vec![AggFunc::CountStar]).unwrap();
    // Entirely before the anchor: bucket −3. Legal on its own.
    win.insert(Chronon(75), &Tuple::new(vec![Value::Int(1), Value::Int(1)]))
        .unwrap();
    // Forward to bucket 2…
    win.insert(
        Chronon(120),
        &Tuple::new(vec![Value::Int(1), Value::Int(1)]),
    )
    .unwrap();
    // …then back before the anchor: must fail with both indices signed.
    let err = win
        .insert(Chronon(95), &Tuple::new(vec![Value::Int(1), Value::Int(1)]))
        .unwrap_err();
    match err {
        ChronicleError::NonMonotonicBucket { newest, attempted } => {
            assert_eq!(newest, 2);
            assert_eq!(attempted, -1, "pre-anchor bucket must stay signed");
        }
        other => panic!("expected NonMonotonicBucket, got {other}"),
    }
}

// =================================================================
// Batch-vs-tuple differential oracle: the vectorized columnar kernels
// must be observationally identical to the per-tuple interpreter —
// byte-identical view snapshots, identical restored state after a
// checkpointed restart, and bit-identical work-counter shapes.
// =================================================================

prop_test! {
    /// Replay the same generated view and append/update schedule on two
    /// engines — one forced onto the scalar interpreter, one vectorizing
    /// every batch it can — and demand byte-identical view snapshots
    /// after **every** operation plus identical critical-path work
    /// counters at the end.
    fn vectorized_batches_match_scalar_interpreter(cases = 96, seed = 0xC01BA7C4;
        spec in view_gen(),
        ops in vec_of(op_gen(), 1..32),
    ) {
        let mut vec_db = build_db();
        let mut sca_db = build_db();
        sca_db.set_batch_mode(BatchMode::Scalar);
        let vec_expr = build_expr(&vec_db, &spec);
        let sca_expr = build_expr(&sca_db, &spec);
        vec_db.create_view("v", vec_expr).unwrap();
        sca_db.create_view("v", sca_expr).unwrap();
        let mut t = 0i64;
        for (i, op) in ops.iter().enumerate() {
            let after = apply_op(&mut vec_db, i, op, t);
            apply_op(&mut sca_db, i, op, t);
            t = after;
            prop_assert_eq!(
                vec_db.snapshot_views(),
                sca_db.snapshot_views(),
                "vectorized and scalar view state diverged at op {}",
                i
            );
        }
        prop_assert_eq!(
            vec_db.stats().work,
            sca_db.stats().work,
            "work-counter shape diverged between the kernel and the interpreter"
        );
    }
}

prop_test! {
    /// The sharded variant: the same mixed DML schedule on two sharded
    /// engines, scalar vs vectorized (verify.sh reruns this at SHARDS=4).
    fn sharded_vectorized_matches_scalar_shards(cases = 96, seed = 0x5CA1AB1E;
        ops in vec_of(dml_gen(), 1..32),
    ) {
        let mut reference = build_zset_db();
        let mut vec_db = ShardedDb::new(shard_count()).unwrap();
        let mut sca_db = ShardedDb::new(shard_count()).unwrap();
        sca_db.set_batch_mode(BatchMode::Scalar);
        for stmt in zset_ddl() {
            vec_db.execute(stmt).unwrap();
            sca_db.execute(stmt).unwrap();
        }
        let mut now = 0i64;
        for op in &ops {
            let (sql, t) = dml_sql(&reference, op, now);
            now = t;
            reference.execute(&sql).unwrap();
            vec_db.execute(&sql).unwrap();
            sca_db.execute(&sql).unwrap();
        }
        prop_assert_eq!(vec_db.snapshot_views(), sca_db.snapshot_views());
        prop_assert_eq!(vec_db.stats().work, sca_db.stats().work);
    }
}

/// Durable variant: identical batched histories on a vectorized and a
/// forced-scalar engine must leave byte-identical files on disk (WAL and
/// checkpoint alike) and restore to byte-identical view state.
#[test]
fn vectorized_and_scalar_checkpoints_are_byte_identical() {
    let run = |scalar: bool| {
        let tmp = TempDir::new(if scalar { "batch-sca" } else { "batch-vec" });
        {
            let mut db = ChronicleDb::open(tmp.path()).unwrap();
            if scalar {
                db.set_batch_mode(BatchMode::Scalar);
            }
            for stmt in zset_ddl() {
                db.execute(stmt).unwrap();
            }
            for s in 1..=6i64 {
                let rows: Vec<Vec<Value>> = (0..24)
                    .map(|i| vec![Value::Int(i % 5), Value::Float(s as f64 + i as f64 / 2.0)])
                    .collect();
                db.append("trades", Chronon(s), &rows).unwrap();
            }
            db.checkpoint().unwrap();
        }
        let files = durable_files(tmp.path());
        let db = ChronicleDb::open(tmp.path()).unwrap();
        (files, db.snapshot_views())
    };
    let (vec_files, vec_views) = run(false);
    let (sca_files, sca_views) = run(true);
    assert_eq!(
        vec_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        sca_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "durable file sets differ"
    );
    for ((name, v), (_, s)) in vec_files.iter().zip(&sca_files) {
        assert_eq!(v, s, "durable artifact `{name}` differs between modes");
    }
    assert_eq!(vec_views, sca_views, "restored view state differs");
}

/// Every durable artifact under `root`, keyed by path relative to it.
fn durable_files(root: &std::path::Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let p = entry.unwrap().path();
            if p.is_dir() {
                stack.push(p);
            } else {
                let rel = p.strip_prefix(root).unwrap();
                files.push((rel.display().to_string(), std::fs::read(&p).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// The one-shard wrap is invisible on disk: a durable engine driven
/// through `ShardedDb::from(db)` — DDL, SQL and batched appends, a
/// checkpoint, more appends — leaves WAL and checkpoint files
/// byte-identical to the unwrapped [`ChronicleDb`] (no `SHARDS` manifest,
/// no `shard-000/`), and reopens unwrapped to the same view state.
#[test]
fn wrapped_single_engine_leaves_byte_identical_files() {
    fn rows(s: i64) -> Vec<Vec<Value>> {
        (0..24)
            .map(|i| vec![Value::Int(i % 5), Value::Float(s as f64 + i as f64 / 2.0)])
            .collect()
    }
    let plain_dir = TempDir::new("wrap-plain");
    let wrapped_dir = TempDir::new("wrap-from");
    {
        let mut plain = ChronicleDb::open(plain_dir.path()).unwrap();
        let mut wrapped = ShardedDb::from(ChronicleDb::open(wrapped_dir.path()).unwrap());
        for stmt in zset_ddl() {
            plain.execute(stmt).unwrap();
            wrapped.execute(stmt).unwrap();
        }
        for s in 1..=6i64 {
            plain.append("trades", Chronon(s), &rows(s)).unwrap();
            wrapped.append("trades", Chronon(s), &rows(s)).unwrap();
            let sql = format!("APPEND INTO trades AT {s} VALUES ({}, 1.5)", s % 5);
            plain.execute(&sql).unwrap();
            wrapped.execute(&sql).unwrap();
            if s == 4 {
                plain.checkpoint().unwrap();
                wrapped.checkpoint().unwrap();
            }
        }
        assert_eq!(wrapped.stats().work, plain.stats().work);
        assert_eq!(wrapped.stats().wal_bytes, plain.stats().wal_bytes);
    }
    let (plain_files, wrapped_files) = (
        durable_files(plain_dir.path()),
        durable_files(wrapped_dir.path()),
    );
    assert!(!plain_files.is_empty());
    assert_eq!(
        plain_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        wrapped_files.iter().map(|(n, _)| n).collect::<Vec<_>>(),
        "durable file sets differ"
    );
    for ((name, p), (_, w)) in plain_files.iter().zip(&wrapped_files) {
        assert_eq!(p, w, "durable artifact `{name}` differs under the wrap");
    }
    assert_eq!(
        ChronicleDb::open(wrapped_dir.path())
            .unwrap()
            .snapshot_views(),
        ChronicleDb::open(plain_dir.path())
            .unwrap()
            .snapshot_views(),
    );
}

/// The mutation gate: with the kernels enabled, a vectorizable view over
/// a multi-row batch **must** take the columnar path. Under
/// `CHRONICLE_MUTATE=scalar_fallback` the counter stays zero and this
/// test fails — verify.sh runs exactly that mutation and requires the
/// failure.
#[test]
fn vectorized_path_is_exercised() {
    let mut db = build_db();
    let calls = db.catalog().chronicle_id("calls").unwrap();
    let expr = ScaExpr::group_agg(
        CaExpr::chronicle(db.catalog().chronicle(calls)),
        &["caller"],
        vec![AggSpec::new(AggFunc::Sum(2), "total")],
    )
    .unwrap();
    db.create_view("v", expr).unwrap();
    let rows: Vec<Vec<Value>> = (0..16)
        .map(|i| vec![Value::Int(i % 4), Value::Float(i as f64)])
        .collect();
    db.append("calls", Chronon(1), &rows).unwrap();
    assert!(
        db.stats().vectorized_views > 0,
        "multi-row append over a σ/Π/γ view never reached the vectorized kernels"
    );
}

prop_test! {
    /// A deliberately broken "oracle" — it claims every view stays empty —
    /// which the harness must refute and then shrink: this proves failure
    /// detection and shrinking work end-to-end against the real database,
    /// not just against toy integer properties.
    #[should_panic(expected = "property failed")]
    fn broken_oracle_is_refuted_and_shrunk(cases = 64, seed = 0xBAD0;
        ops in vec_of(op_gen(), 1..40),
    ) {
        let mut db = build_db();
        let calls = db.catalog().chronicle_id("calls").unwrap();
        let expr = ScaExpr::project(
            CaExpr::chronicle(db.catalog().chronicle(calls)),
            &["caller"],
        )
        .unwrap();
        db.create_view("v", expr).unwrap();
        let mut t = 0i64;
        for (i, op) in ops.iter().enumerate() {
            t = apply_op(&mut db, i, op, t);
        }
        // False claim: appends never reach the view.
        prop_assert!(
            db.query_view("v").unwrap().is_empty(),
            "view has {} rows",
            db.query_view("v").unwrap().len()
        );
    }
}
