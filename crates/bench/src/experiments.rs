//! The derived experiments (DESIGN.md §6): E1–E10 and E12 for the
//! paper's theorems and claims, E14–E16 and E18–E19 for the durability,
//! sharding, replication, placement and failover layers.
//!
//! Each function builds its own database, runs its sweep, and returns one
//! or more [`Figure`]s; [`ALL`] lists them by id for the `experiments`
//! binary. Every series is a deterministic quantity — work counters,
//! bytes, record counts, moves, agreement flags — never a clock reading,
//! so a figure is a pure function of the code and the `scale` argument
//! (1 = full, 0 = the reduced sweeps the tests run).

use chronicle_algebra::delta::{DeltaBatch, DeltaEngine};
use chronicle_algebra::{
    AggFunc, AggSpec, CaExpr, CmpOp, Predicate, RelationRef, ScaExpr, WorkCounter,
};
use chronicle_db::pipeline::ShardedPipeline;
use chronicle_db::{shard_of_group, ChronicleDb, DurabilityOptions, FollowerDb, ShardedDb};
use chronicle_net::{ShipEvent, Shipper, WalSource, DEFAULT_CHUNK};
use chronicle_store::{Catalog, Retention};
use chronicle_testkit::{SeedableRng, SmallRng, TempDir, Zipf};
use chronicle_types::{AttrType, Attribute, ChronicleId, Chronon, Schema, SeqNo, Tuple, Value};
use chronicle_views::{
    AppendEvent, BatchDiscount, Calendar, Maintainer, PeriodicDef, RouteMode, SlidingWindow,
    TierSchedule,
};
use chronicle_workload::{AtmGen, CallGen, TradeGen};

use crate::baseline::{NaiveRecomputeView, StoredThetaJoinCount};
use crate::harness::{Figure, Series};

/// One experiment of the record: its id (the `BENCH_<id>.json` name) and
/// the sweep that produces its figures at a given scale.
pub type Experiment = (&'static str, fn(u32) -> Vec<Figure>);

/// Every experiment in the record, in id order.
pub const ALL: &[Experiment] = &[
    ("E1", |s| vec![e1_chronicle_size(s)]),
    ("E2", |s| vec![e2_ca_cost(s)]),
    ("E3", |s| vec![e3_keyjoin_vs_product(s)]),
    ("E4", |s| vec![e4_ca1_constant(s)]),
    ("E5", |s| {
        let (v, t) = e5_sca_apply(s);
        vec![v, t]
    }),
    ("E6", |s| vec![e6_class_separation(s)]),
    ("E7", |s| vec![e7_maximality(s)]),
    ("E8", |s| vec![e8_sliding_window(s)]),
    ("E9", |s| vec![e9_router(s)]),
    ("E10", |s| vec![e10_tiered(s)]),
    ("E12", |s| vec![e12_proactive(s)]),
    ("E14", |s| vec![e14_recovery(s)]),
    ("E15", |s| vec![e15_sharding(s)]),
    ("E16", |s| vec![e16_replication(s)]),
    ("E18", |s| vec![e18_zipf_skew(s)]),
    ("E19", |s| vec![e19_failover(s)]),
];

/// Standard call-record chronicle schema used by several experiments.
fn call_schema() -> Schema {
    Schema::chronicle(
        vec![
            Attribute::new("sn", AttrType::Seq),
            Attribute::new("caller", AttrType::Int),
            Attribute::new("minutes", AttrType::Float),
        ],
        "sn",
    )
    .expect("static schema")
}

fn rate_schema() -> Schema {
    Schema::relation_with_key(
        vec![
            Attribute::new("acct", AttrType::Int),
            Attribute::new("rate", AttrType::Float),
        ],
        &["acct"],
    )
    .expect("static schema")
}

fn call_tuple(seq: u64, caller: i64, minutes: f64) -> Tuple {
    Tuple::new(vec![
        Value::Seq(SeqNo(seq)),
        Value::Int(caller),
        Value::Float(minutes),
    ])
}

/// Build a catalog with one call chronicle (given retention) and a rates
/// relation of `rel_size` rows.
fn call_catalog(retention: Retention, rel_size: i64) -> (Catalog, ChronicleId, RelationRef) {
    let mut cat = Catalog::new();
    let g = cat.create_group("g").expect("fresh catalog");
    let c = cat
        .create_chronicle("calls", g, call_schema(), retention)
        .expect("fresh catalog");
    let r = cat.create_relation("rates", rate_schema()).expect("fresh");
    for i in 0..rel_size {
        cat.relation_insert(
            r,
            g,
            Tuple::new(vec![Value::Int(i), Value::Float(0.01 * i as f64)]),
        )
        .expect("unique keys");
    }
    (cat, c, RelationRef::new(r, rate_schema(), "rates"))
}

// ====================================================================== E1

/// E1 — Proposition 3.1: per-append maintenance cost vs chronicle size.
/// Naive recomputation grows linearly with |C|; SCA maintenance is flat;
/// classical IVM-with-chronicle-access sits between (flat here because the
/// view is in CA — its pathology is E7's subject).
pub fn e1_chronicle_size(scale: u32) -> Figure {
    let sizes: Vec<usize> = match scale {
        0 => vec![100, 1_000],
        _ => vec![1_000, 10_000, 100_000, 300_000],
    };
    let mut fig = Figure::new(
        "E1 — per-append maintenance vs chronicle size |C| (Prop. 3.1)",
        "|C|",
        "mean cost per append",
    );
    fig.note("SCA view: SELECT acct, SUM(amount) GROUP BY acct over the atm chronicle.");
    fig.note("expected: naive recompute grows ~linearly in |C|; SCA flat and independent of |C|.");
    let mut sca_work = Series::new("SCA tuples touched");
    let mut naive_work = Series::new("naive tuples read");

    for &n in &sizes {
        // Incremental database: retention None — the chronicle is not even
        // stored.
        let mut db = ChronicleDb::new();
        db.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT)")
            .expect("ddl");
        db.execute("CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM atm GROUP BY acct")
            .expect("ddl");
        let mut gen = AtmGen::new(42, 512);
        for i in 0..n {
            let row = gen.next_row();
            db.append(
                "atm",
                Chronon(i as i64),
                &[vec![row[0].clone(), row[1].clone()]],
            )
            .expect("append");
        }
        let before = db.stats().work.total();
        let probes = 200usize;
        for i in 0..probes {
            let row = gen.next_row();
            db.append(
                "atm",
                Chronon((n + i) as i64),
                &[vec![row[0].clone(), row[1].clone()]],
            )
            .expect("append");
        }
        let dw = (db.stats().work.total() - before) as f64 / probes as f64;
        sca_work.push(n as f64, dw);

        // Naive database: must store everything and recompute per append.
        let mut cat = Catalog::new();
        let g = cat.create_group("g").expect("fresh");
        let atm_schema = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("acct", AttrType::Int),
                Attribute::new("amount", AttrType::Float),
            ],
            "sn",
        )
        .expect("static");
        let c = cat
            .create_chronicle("atm", g, atm_schema, Retention::All)
            .expect("fresh");
        let mut gen = AtmGen::new(42, 512);
        for i in 0..n {
            let row = gen.next_row();
            let seq = SeqNo(i as u64 + 1);
            cat.append_at(
                c,
                seq,
                Chronon(i as i64),
                &[Tuple::new(vec![
                    Value::Seq(seq),
                    row[0].clone(),
                    row[1].clone(),
                ])],
            )
            .expect("append");
        }
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["acct"],
            vec![AggSpec::new(AggFunc::Sum(2), "b")],
        )
        .expect("in language");
        let mut naive = NaiveRecomputeView::new(expr);
        naive.refresh(&cat).expect("stored");
        naive_work.push(n as f64, naive.last_read as f64);
    }
    fig.series = vec![sca_work, naive_work];
    fig
}

// ====================================================================== E2

/// E2 — Theorem 4.2: delta size/work of CA expressions vs the number of
/// chronicle×relation products `j` and unions `u`. With a relation of size
/// R, a single appended tuple produces `(u·R)^j`-shaped deltas.
pub fn e2_ca_cost(scale: u32) -> Figure {
    let r_size: i64 = if scale == 0 { 3 } else { 4 };
    let mut fig = Figure::new(
        "E2 — CA delta cost vs (u, j) (Thm 4.2)",
        "j (products)",
        "delta tuples per 1-tuple append",
    );
    fig.note(format!("relation size R = {r_size}; one tuple appended."));
    fig.note("expected: measured delta size tracks the (u·R)^j formula exactly.");
    for u in 0..=2u32 {
        let mut measured = Series::new(format!("measured (u={u})"));
        let mut predicted = Series::new(format!("predicted (u={u})"));
        for j in 0..=3u32 {
            let (cat, c, rel) = call_catalog(Retention::None, r_size);
            // Build u unions at the base (self-union is idempotent under
            // set semantics, so union distinct selections that all pass).
            let base = CaExpr::chronicle(cat.chronicle(c));
            let mut expr = base.clone();
            for k in 0..u {
                // σ_{minutes > -k-1}(C): distinct predicates, all true, so
                // the union branches each contribute the same tuple — the
                // union dedups them, but the *work* of the branches remains.
                let p = Predicate::attr_cmp_const(
                    base.schema(),
                    "minutes",
                    CmpOp::Gt,
                    Value::Float(-(k as f64) - 1.0),
                )
                .expect("typed");
                expr = expr
                    .union(base.clone().select(p).expect("valid"))
                    .expect("same type");
            }
            for _ in 0..j {
                // Chained products: each multiplies the delta by R. To keep
                // schemas growing validly, product with the same relation.
                expr = expr.product(rel.clone()).expect("relation product");
            }
            let engine = DeltaEngine::new(&cat);
            let batch = DeltaBatch {
                chronicle: c,
                seq: SeqNo(1),
                tuples: vec![call_tuple(1, 7, 1.0)],
            };
            let mut w = WorkCounter::default();
            let delta = engine.delta_ca(&expr, &batch, &mut w).expect("delta");
            measured.push(j as f64, delta.len() as f64);
            // Unions dedup identical tuples, so the delta size is R^j; the
            // paper's bound (u·R)^j is an upper bound with u branches kept.
            predicted.push(j as f64, (r_size as f64).powi(j as i32));
        }
        fig.series.push(measured);
        fig.series.push(predicted);
    }
    fig
}

// ====================================================================== E3

/// E3 — Theorem 4.2: CA⋈ vs CA as the relation grows. The key join does
/// one index probe per tuple (log |R|); the product scans all |R| rows.
pub fn e3_keyjoin_vs_product(scale: u32) -> Figure {
    let sizes: Vec<i64> = match scale {
        0 => vec![100, 1_000],
        _ => vec![100, 1_000, 10_000, 100_000],
    };
    let mut fig = Figure::new(
        "E3 — key join (CA⋈) vs product (CA) per-append cost vs |R| (Thm 4.2)",
        "|R|",
        "per-append cost",
    );
    fig.note(
        "expected: product work ~|R|; key-join work flat (1 probe, itself O(log|R|) in the \
         ordered index — the model charges a probe as one unit).",
    );
    let mut join_work = Series::new("key join work");
    let mut prod_work = Series::new("product work");
    for &r in &sizes {
        let (cat, c, rel) = call_catalog(Retention::None, r);
        let join_expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c))
                .join_rel_key(rel.clone(), &["caller"])
                .expect("key join"),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "m")],
        )
        .expect("in language");
        let prod_expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c))
                .product(rel.clone())
                .expect("product"),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "m")],
        )
        .expect("in language");
        let engine = DeltaEngine::new(&cat);
        let batch = |seq: u64| DeltaBatch {
            chronicle: c,
            seq: SeqNo(seq),
            tuples: vec![call_tuple(seq, (seq % r as u64) as i64, 1.0)],
        };
        let mut wj = WorkCounter::default();
        engine
            .delta_sca(&join_expr, &batch(1), &mut wj)
            .expect("delta");
        let mut wp = WorkCounter::default();
        engine
            .delta_sca(&prod_expr, &batch(2), &mut wp)
            .expect("delta");
        join_work.push(r as f64, wj.total() as f64);
        prod_work.push(r as f64, wp.total() as f64);
    }
    fig.series = vec![join_work, prod_work];
    fig
}

// ====================================================================== E4

/// E4 — Theorem 4.2: CA₁ change computation is constant — independent of
/// both |R| (no relation operands) and |C| (no chronicle access at all).
pub fn e4_ca1_constant(scale: u32) -> Figure {
    let appends: usize = if scale == 0 { 500 } else { 20_000 };
    let mut fig = Figure::new(
        "E4 — CA₁ per-append work along a growing chronicle (Thm 4.2)",
        "appends so far",
        "work per append",
    );
    fig.note("view: σ(minutes>1) ∪ σ(caller=7), grouped; no relation operands.");
    fig.note("expected: flat — the 10⁶th append costs what the 1st did.");
    let (cat, c, _) = call_catalog(Retention::None, 0);
    let base = CaExpr::chronicle(cat.chronicle(c));
    let p1 = Predicate::attr_cmp_const(base.schema(), "minutes", CmpOp::Gt, Value::Float(1.0))
        .expect("typed");
    let p2 = Predicate::attr_cmp_const(base.schema(), "caller", CmpOp::Eq, Value::Int(7))
        .expect("typed");
    let expr = ScaExpr::group_agg(
        base.clone()
            .select(p1)
            .expect("valid")
            .union(base.select(p2).expect("valid"))
            .expect("same type"),
        &["caller"],
        vec![AggSpec::new(AggFunc::CountStar, "n")],
    )
    .expect("in language");
    let engine = DeltaEngine::new(&cat);
    let mut series = Series::new("CA₁ work per append");
    let checkpoints = 8usize;
    let mut w_prev = 0u64;
    let mut w = WorkCounter::default();
    for i in 0..appends {
        let b = DeltaBatch {
            chronicle: c,
            seq: SeqNo(i as u64 + 1),
            tuples: vec![call_tuple(i as u64 + 1, (i % 100) as i64, (i % 7) as f64)],
        };
        engine.delta_sca(&expr, &b, &mut w).expect("delta");
        if (i + 1) % (appends / checkpoints) == 0 {
            let total = w.total();
            series.push(
                (i + 1) as f64,
                (total - w_prev) as f64 / (appends / checkpoints) as f64,
            );
            w_prev = total;
        }
    }
    fig.series.push(series);
    fig
}

// ====================================================================== E5

/// E5 — Theorem 4.4: applying a summarized delta costs `O(t log |V|)`:
/// sweep the view size |V| (groups) and the batch size t.
pub fn e5_sca_apply(scale: u32) -> (Figure, Figure) {
    let sizes: Vec<usize> = match scale {
        0 => vec![100, 1_000],
        _ => vec![1_000, 10_000, 100_000, 1_000_000],
    };
    let mut fig_v = Figure::new(
        "E5a — apply work vs view size |V| (Thm 4.4)",
        "|V| (groups)",
        "apply work per tuple",
    );
    fig_v.note(
        "expected: flat — one group probe per tuple. The model charges a probe as one unit, \
         so the log|V| factor of Thm 4.4 is a property of the ordered index (BTreeMap) and \
         is not counted here.",
    );
    let mut w_series = Series::new("apply work per tuple");
    for &v in &sizes {
        let (cat, c, _) = call_catalog(Retention::None, 0);
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "m")],
        )
        .expect("in language");
        let mut maintainer = Maintainer::new();
        maintainer.register("v", expr).expect("fresh");
        // Prepopulate |V| groups.
        let mut seq = 0u64;
        for i in 0..v {
            seq += 1;
            let ev = AppendEvent {
                chronicle: c,
                seq: SeqNo(seq),
                chronon: Chronon(seq as i64),
                tuples: vec![call_tuple(seq, i as i64, 1.0)],
            };
            maintainer.on_append(&cat, &ev).expect("maintain");
        }
        // Probe: one-tuple batches, each hitting one existing group.
        let probes = 300usize;
        let mut work = 0u64;
        for _ in 0..probes {
            seq += 1;
            let ev = AppendEvent {
                chronicle: c,
                seq: SeqNo(seq),
                chronon: Chronon(seq as i64),
                tuples: vec![call_tuple(seq, (seq % v as u64) as i64, 1.0)],
            };
            let report = maintainer.on_append(&cat, &ev).expect("maintain");
            work += report.total_work.total();
        }
        w_series.push(v as f64, work as f64 / probes as f64);
    }
    fig_v.series.push(w_series);

    let mut fig_t = Figure::new(
        "E5b — apply work vs batch size t (Thm 4.4)",
        "t (tuples per batch)",
        "work per batch",
    );
    fig_t.note("expected: linear in t.");
    let mut wseries = Series::new("work per batch");
    let (cat, c, _) = call_catalog(Retention::None, 0);
    let expr = ScaExpr::group_agg(
        CaExpr::chronicle(cat.chronicle(c)),
        &["caller"],
        vec![AggSpec::new(AggFunc::Sum(2), "m")],
    )
    .expect("in language");
    let mut maintainer = Maintainer::new();
    maintainer.register("v", expr).expect("fresh");
    let mut seq = 0u64;
    for t in [1usize, 4, 16, 64, 256, 512] {
        seq += 1;
        let tuples: Vec<Tuple> = (0..t).map(|i| call_tuple(seq, i as i64, 1.0)).collect();
        let ev = AppendEvent {
            chronicle: c,
            seq: SeqNo(seq),
            chronon: Chronon(seq as i64),
            tuples,
        };
        let report = maintainer.on_append(&cat, &ev).expect("maintain");
        wseries.push(t as f64, report.total_work.total() as f64);
    }
    fig_t.series.push(wseries);
    (fig_v, fig_t)
}

// ====================================================================== E6

/// E6 — Theorem 4.5: the class separation. Three views over the same
/// chronicle — SCA₁ (IM-Constant), SCA⋈ (IM-log R), SCA with a product
/// (IM-R^k) — swept over |R|.
pub fn e6_class_separation(scale: u32) -> Figure {
    let sizes: Vec<i64> = match scale {
        0 => vec![64, 512],
        _ => vec![64, 512, 4_096, 32_768, 262_144],
    };
    let mut fig = Figure::new(
        "E6 — IM-class separation: per-append work vs |R| (Thm 4.5)",
        "|R|",
        "work per append",
    );
    fig.note("expected: SCA₁ flat; SCA⋈ flat probes (each O(log|R|)); SCA ~|R|.");
    let mut s1 = Series::new("SCA₁ work");
    let mut sk = Series::new("SCA⋈ work");
    let mut sp = Series::new("SCA (product) work");
    for &r in &sizes {
        let (cat, c, rel) = call_catalog(Retention::None, r);
        let base = CaExpr::chronicle(cat.chronicle(c));
        let v1 = ScaExpr::group_agg(
            base.clone(),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "m")],
        )
        .expect("in language");
        let vk = ScaExpr::group_agg(
            base.clone()
                .join_rel_key(rel.clone(), &["caller"])
                .expect("key join"),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "m")],
        )
        .expect("in language");
        let vp = ScaExpr::group_agg(
            base.product(rel.clone()).expect("product"),
            &["caller"],
            vec![AggSpec::new(AggFunc::Sum(2), "m")],
        )
        .expect("in language");
        assert_eq!(v1.language_name(), "SCA_1");
        assert_eq!(vk.language_name(), "SCA_join");
        assert_eq!(vp.language_name(), "SCA");
        let engine = DeltaEngine::new(&cat);
        let b = DeltaBatch {
            chronicle: c,
            seq: SeqNo(1),
            tuples: vec![call_tuple(1, 7, 1.0)],
        };
        let mut w1 = WorkCounter::default();
        engine.delta_sca(&v1, &b, &mut w1).expect("delta");
        let mut wk = WorkCounter::default();
        engine.delta_sca(&vk, &b, &mut wk).expect("delta");
        let mut wp = WorkCounter::default();
        engine.delta_sca(&vp, &b, &mut wp).expect("delta");
        s1.push(r as f64, w1.total() as f64);
        sk.push(r as f64, wk.total() as f64);
        sp.push(r as f64, wp.total() as f64);
    }
    fig.series = vec![s1, sk, sp];
    fig
}

// ====================================================================== E7

/// E7 — Theorem 4.3 (maximality): a θ-join between two chronicles cannot
/// be in CA; the validator rejects it, and the best maintenance strategy
/// (classical IVM with chronicle access) does per-append work growing with
/// |C|.
pub fn e7_maximality(scale: u32) -> Figure {
    let sizes: Vec<usize> = match scale {
        0 => vec![100, 500],
        _ => vec![1_000, 4_000, 16_000, 64_000],
    };
    let mut fig = Figure::new(
        "E7 — beyond-CA: per-append work of C₁ ⋈_θ C₂ maintenance vs |C| (Thm 4.3)",
        "|C| (stored tuples per chronicle)",
        "chronicle tuples scanned per append",
    );
    // Demonstrate the static rejection first.
    let (cat0, c0, _) = call_catalog(Retention::All, 0);
    let e1 = CaExpr::chronicle(cat0.chronicle(c0));
    let e2 = CaExpr::chronicle(cat0.chronicle(c0));
    let rejection = e1
        .product_chronicles(e2)
        .expect_err("Theorem 4.3: chronicle×chronicle is not in CA");
    fig.note(format!("CA validator: {rejection}"));
    fig.note("expected: per-append scan work grows linearly with |C|.");
    let mut scanned = Series::new("tuples scanned per append");
    for &n in &sizes {
        let mut cat = Catalog::new();
        let g = cat.create_group("g").expect("fresh");
        let a = cat
            .create_chronicle("a", g, call_schema(), Retention::All)
            .expect("fresh");
        let b = cat
            .create_chronicle("b", g, call_schema(), Retention::All)
            .expect("fresh");
        let mut seq = 0u64;
        for i in 0..n {
            seq += 1;
            cat.append_at(
                a,
                SeqNo(seq),
                Chronon(seq as i64),
                &[call_tuple(seq, i as i64, 1.0)],
            )
            .expect("append");
            seq += 1;
            cat.append_at(
                b,
                SeqNo(seq),
                Chronon(seq as i64),
                &[call_tuple(seq, i as i64, 2.0)],
            )
            .expect("append");
        }
        let mut joined = StoredThetaJoinCount::new(a, b, (1, CmpOp::Lt, 1));
        let probes = 5usize;
        let before = joined.scanned;
        for _ in 0..probes {
            seq += 1;
            let t = vec![call_tuple(seq, (seq % 97) as i64, 1.0)];
            cat.append_at(a, SeqNo(seq), Chronon(seq as i64), &t)
                .expect("append");
            joined.on_append(&cat, a, &t).expect("stored");
        }
        scanned.push(n as f64, (joined.scanned - before) as f64 / probes as f64);
    }
    fig.series.push(scanned);
    fig
}

// ====================================================================== E8

/// E8 — §5.1: the cyclic-buffer optimization for overlapping windows.
/// Compare, for a w-bucket moving sum over stock trades: (a) the cyclic
/// buffer, (b) a periodic view family over the sliding calendar (one full
/// view per overlapping window), (c) naive recomputation over the stored
/// window.
pub fn e8_sliding_window(scale: u32) -> Figure {
    let widths: Vec<usize> = match scale {
        0 => vec![7, 30],
        _ => vec![7, 30, 90, 365],
    };
    let appends: usize = if scale == 0 { 500 } else { 5_000 };
    let mut fig = Figure::new(
        "E8 — 30-day-style moving sum: per-append cost vs window width w (§5.1)",
        "w (buckets)",
        "per-append work",
    );
    fig.note(
        "expected: cyclic buffer bounded independent of w (one fold plus the buckets a key's ring \
         slides since its last trade — about the 8-symbol inter-arrival gap, capped at w); \
         per-window periodic views ~w; naive recompute ~tuples-in-window.",
    );
    let mut cyclic = Series::new("cyclic buffer accumulator updates+retractions");
    let mut periodic = Series::new("periodic-views work");
    let mut naive = Series::new("naive window recompute tuples summed");
    for &w in &widths {
        // (a) cyclic buffer.
        let mut gen = TradeGen::new(7);
        let mut win =
            SlidingWindow::new(Chronon(0), w, 1, vec![0], vec![AggFunc::Sum(1)]).expect("valid");
        for i in 0..appends {
            let row = gen.next_row();
            let t = Tuple::new(vec![row[0].clone(), row[1].clone()]);
            win.insert(Chronon(i as i64), &t).expect("monotone");
        }
        cyclic.push(
            w as f64,
            (win.updates() + win.retractions()) as f64 / appends as f64,
        );

        // (b) periodic family over a sliding calendar, maintained like any
        // view: one delta per append, applied under each of the w windows.
        let mut cat = Catalog::new();
        let g = cat.create_group("g").expect("fresh");
        let ts = Schema::chronicle(
            vec![
                Attribute::new("sn", AttrType::Seq),
                Attribute::new("symbol", AttrType::Str),
                Attribute::new("shares", AttrType::Int),
            ],
            "sn",
        )
        .expect("static");
        let c = cat
            .create_chronicle("trades", g, ts, Retention::None)
            .expect("fresh");
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(cat.chronicle(c)),
            &["symbol"],
            vec![AggSpec::new(AggFunc::Sum(2), "shares")],
        )
        .expect("in language");
        let cal = Calendar::sliding(Chronon(0), w as i64, 1).expect("valid");
        let mut maintainer = Maintainer::new();
        maintainer
            .register("win", PeriodicDef::new(expr, cal, Some(0)).expect("valid"))
            .expect("fresh");
        let mut gen = TradeGen::new(7);
        let per_appends = appends.min(1_000);
        let mut wk = WorkCounter::default();
        for seq in 1..=per_appends as u64 {
            let row = gen.next_row();
            let ev = AppendEvent {
                chronicle: c,
                seq: SeqNo(seq),
                chronon: Chronon(seq as i64),
                tuples: vec![Tuple::new(vec![
                    Value::Seq(SeqNo(seq)),
                    row[0].clone(),
                    row[1].clone(),
                ])],
            };
            let report = maintainer.on_append(&cat, &ev).expect("maintain");
            wk.absorb(report.total_work);
        }
        periodic.push(w as f64, wk.total() as f64 / per_appends as f64);

        // (c) naive: store the window (one tuple per chronon), re-sum all
        // of it on every append — the "query each append" pattern.
        let mut stored: std::collections::VecDeque<i64> = Default::default();
        let mut summed = 0usize;
        for i in 0..appends as i64 {
            stored.push_back(i);
            while stored.front().is_some_and(|&t0| t0 <= i - w as i64) {
                stored.pop_front();
            }
            summed += stored.len();
        }
        naive.push(w as f64, summed as f64 / appends as f64);
    }
    fig.series = vec![cyclic, periodic, naive];
    fig
}

// ====================================================================== E9

/// E9 — §5.2: affected-view identification. k views with selective guards;
/// routing cost vs maintaining everything.
pub fn e9_router(scale: u32) -> Figure {
    let counts: Vec<usize> = match scale {
        0 => vec![4, 64],
        _ => vec![16, 128, 1_024, 4_096],
    };
    let mut fig = Figure::new(
        "E9 — affected-view routing: per-append work vs registered views (§5.2)",
        "registered views",
        "per-append maintenance",
    );
    fig.note("each view guards one caller id; an append matches exactly one view.");
    fig.note("expected: routed work and views maintained flat (1 view); scan-all both ~k (every view propagates its empty delta).");
    let mut routed = Series::new("routed work");
    let mut scan_all = Series::new("scan-all work");
    let mut routed_views = Series::new("routed views maintained");
    let mut scan_all_views = Series::new("scan-all views maintained");
    for &k in &counts {
        for mode in [RouteMode::Routed, RouteMode::ScanAll] {
            let (cat, c, _) = call_catalog(Retention::None, 0);
            let mut maintainer = Maintainer::new();
            maintainer.set_route_mode(mode);
            let base = CaExpr::chronicle(cat.chronicle(c));
            for i in 0..k {
                let p = Predicate::attr_cmp_const(
                    base.schema(),
                    "caller",
                    CmpOp::Eq,
                    Value::Int(i as i64),
                )
                .expect("typed");
                let expr = ScaExpr::group_agg(
                    base.clone().select(p).expect("valid"),
                    &["caller"],
                    vec![AggSpec::new(AggFunc::Sum(2), "m")],
                )
                .expect("in language");
                maintainer.register(&format!("v{i}"), expr).expect("fresh");
            }
            let appends = if k >= 1024 { 200 } else { 500 };
            let (mut work, mut views) = (0u64, 0usize);
            for seq in 1..=appends as u64 {
                let ev = AppendEvent {
                    chronicle: c,
                    seq: SeqNo(seq),
                    chronon: Chronon(seq as i64),
                    tuples: vec![call_tuple(seq, (seq % k as u64) as i64, 1.0)],
                };
                let report = maintainer.on_append(&cat, &ev).expect("maintain");
                work += report.total_work.total();
                views += report.views.len();
            }
            let (w, v) = match mode {
                RouteMode::Routed => (&mut routed, &mut routed_views),
                RouteMode::ScanAll => (&mut scan_all, &mut scan_all_views),
            };
            w.push(k as f64, work as f64 / appends as f64);
            v.push(k as f64, views as f64 / appends as f64);
        }
    }
    fig.series = vec![routed, scan_all, routed_views, scan_all_views];
    fig
}

// ===================================================================== E10

/// E10 — §5.3: tiered telephone discounts, batch vs incremental. Same
/// final answers; the incremental plan is always current, the batch plan
/// is stale until period end.
pub fn e10_tiered(scale: u32) -> Figure {
    let txns: usize = if scale == 0 { 1_000 } else { 50_000 };
    let accounts = 500i64;
    let mut fig = Figure::new(
        "E10 — tiered discount plan: batch vs incremental (§5.3)",
        "checkpoint (fraction of month)",
        "accounts with correct mid-period answer",
    );
    fig.note("plan: 0% < $10 ≤ 10% < $25 ≤ 20% (the paper's example).");
    let mut inc_correct = Series::new("incremental correct");
    let mut batch_correct = Series::new("batch correct");
    let mut active = Series::new("accounts with activity");
    let mut inc = TierSchedule::us_telephone_1995();
    let mut batch = BatchDiscount::new(&inc);
    let mut gen = CallGen::new(3, accounts);
    let checkpoints = [0.25, 0.5, 0.75, 1.0];
    let mut next_cp = 0usize;
    for i in 0..txns {
        let row = gen.next_row();
        let key = vec![row[0].clone()];
        let cost = row[3].as_float().expect("cost");
        inc.apply(&key, cost);
        batch.record(&key, cost);
        let frac = (i + 1) as f64 / txns as f64;
        if next_cp < checkpoints.len() && frac >= checkpoints[next_cp] {
            // Ground truth at this instant: recompute from a parallel batch
            // over the same prefix — which is exactly batch.compute().
            let truth = batch.compute();
            let inc_ok = truth
                .iter()
                .filter(|(k, s)| {
                    let g = inc.get(k);
                    (g.discounted - s.discounted).abs() < 1e-9
                })
                .count();
            // The batch approach answers only at period end; mid-period it
            // has no derived values (count correct = 0 until the last
            // checkpoint, where its one computation is right).
            let batch_ok = if checkpoints[next_cp] >= 1.0 {
                truth.len()
            } else {
                0
            };
            inc_correct.push(checkpoints[next_cp], inc_ok as f64);
            batch_correct.push(checkpoints[next_cp], batch_ok as f64);
            active.push(checkpoints[next_cp], truth.len() as f64);
            next_cp += 1;
        }
    }
    fig.series = vec![inc_correct, batch_correct, active];
    fig.note(format!(
        "{txns} call records over {accounts} accounts; final states agree exactly."
    ));
    fig
}

// ===================================================================== E12

/// E12 — §2.3 / Example 2.2: proactive updates preserve the temporal-join
/// semantics (incremental view == oracle over the version history), and
/// retroactive updates are rejected.
pub fn e12_proactive(scale: u32) -> Figure {
    let moves: usize = if scale == 0 { 20 } else { 200 };
    let mut fig = Figure::new(
        "E12 — proactive updates & the implicit temporal join (Ex. 2.2)",
        "relation updates interleaved",
        "groups where incremental == oracle",
    );
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE flights (sn SEQ, acct INT, miles INT) RETAIN ALL")
        .expect("ddl");
    db.execute("CREATE RELATION customers (acct INT, state STRING, PRIMARY KEY (acct))")
        .expect("ddl");
    for a in 0..10i64 {
        db.execute(&format!("INSERT INTO customers VALUES ({a}, 'NJ')"))
            .expect("dml");
    }
    // NJ residents get a bonus: count NJ flights per account.
    db.execute(
        "CREATE VIEW nj_flights AS SELECT acct, COUNT(*) AS n, SUM(miles) AS miles \
         FROM flights JOIN customers ON acct = acct WHERE state = 'NJ' GROUP BY acct",
    )
    .expect("view");
    let mut rng_state = 12345u64;
    let mut next = || {
        rng_state = rng_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng_state >> 33) as i64
    };
    let mut t = 0i64;
    for m in 0..moves {
        // A few flights...
        for _ in 0..5 {
            t += 1;
            let acct = next().rem_euclid(10);
            let miles = 100 + next().rem_euclid(900);
            db.execute(&format!(
                "APPEND INTO flights AT {t} VALUES ({acct}, {miles})"
            ))
            .expect("append");
        }
        // ...then someone moves (proactive: affects only future flights).
        let acct = next().rem_euclid(10);
        let state = if m % 2 == 0 { "NY" } else { "NJ" };
        db.execute(&format!(
            "UPDATE customers SET state = '{state}' WHERE acct = {acct}"
        ))
        .expect("dml");
    }
    // Oracle: evaluate the view definition over the stored chronicle with
    // exact per-SN relation versions.
    let expr = db.maintainer().expr_of("nj_flights").expect("registered");
    let oracle = chronicle_algebra::eval::canon(
        chronicle_algebra::eval::eval_sca(db.catalog(), expr).expect("stored"),
    );
    let incremental = chronicle_algebra::eval::canon(db.query_view("nj_flights").expect("view"));
    let agree = oracle == incremental;
    let mut s = Series::new("exact agreement (1 = yes)");
    s.push(moves as f64, if agree { 1.0 } else { 0.0 });
    fig.series.push(s);
    fig.note(format!(
        "{} view rows compared against the temporal-join oracle; agreement: {agree}.",
        incremental.len()
    ));
    // And the retroactive path is rejected with a typed error.
    let g = db.catalog().group_id("default").expect("exists");
    let hw = db.catalog().group(g).high_water();
    let rid = db.catalog().relation_id("customers").expect("exists");
    let err = db
        .catalog_mut()
        .relation_mut(rid)
        .insert_effective(
            Tuple::new(vec![Value::Int(99), Value::str("NJ")]),
            SeqNo(1),
            hw,
        )
        .expect_err("retroactive must be rejected");
    fig.note(format!("retroactive update rejected: {err}"));
    fig
}

// ===================================================================== E14

/// E14 — recovery work vs pre-checkpoint chronicle length with a fixed
/// WAL tail (the durability analogue of Prop. 3.1). A checkpoint persists
/// the views in O(|V|), so reopening replays only the tail; the records
/// replayed must stay flat while the pre-checkpoint history grows.
pub fn e14_recovery(scale: u32) -> Figure {
    let tail: usize = if scale == 0 { 200 } else { 1_000 };
    let sizes: &[usize] = if scale == 0 {
        &[1_000, 2_000, 4_000]
    } else {
        &[10_000, 40_000, 160_000]
    };
    let mut fig = Figure::new(
        "E14 — recovery replay vs chronicle length (fixed WAL tail)",
        "pre-checkpoint appends",
        "WAL records replayed on reopen",
    );
    let mut replayed = Series::new("tail records replayed");
    for &n in sizes {
        let tmp = TempDir::new("e14-json");
        {
            let mut db = ChronicleDb::open(tmp.path()).expect("open");
            db.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT)")
                .expect("ddl");
            db.execute(
                "CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM atm GROUP BY acct",
            )
            .expect("ddl");
            let mut gen = AtmGen::new(1, 100);
            for i in 0..n + tail {
                let row = gen.next_row();
                db.append(
                    "atm",
                    Chronon(i as i64),
                    &[vec![row[0].clone(), row[1].clone()]],
                )
                .expect("append");
                if i + 1 == n {
                    db.checkpoint().expect("checkpoint");
                }
            }
        }
        let db = ChronicleDb::open(tmp.path()).expect("reopen");
        replayed.push(n as f64, db.stats().recovery_replayed_records as f64);
    }
    fig.series.push(replayed);
    fig.note(format!(
        "WAL tail fixed at {tail} records; expected: replay flat while the \
         pre-checkpoint chronicle grows {}x",
        sizes.last().expect("nonempty") / sizes.first().expect("nonempty")
    ));
    fig
}

// ===================================================================== E15

/// E15 — sharded maintenance scaling: the critical-path share of
/// maintenance work as the catalog is hash-partitioned, and the WAL
/// records a durable append stream costs. Theorem 4.1 keeps the shards
/// coordination-free, so the serial stage of a sharded run is its
/// most-loaded shard; with the balanced group set the critical path
/// shrinks as 1/shards. Each shard count is swept twice over the same
/// total tuple stream: row-at-a-time appends (one WAL record and one
/// maintenance event per tuple) and 32-row batches (one columnar WAL
/// record and one vectorized maintenance event per batch).
pub fn e15_sharding(scale: u32) -> Figure {
    const GROUPS: usize = 8;
    /// Rows per append in the batched sweep.
    const BATCH: usize = 32;
    // Tuples per group; divisible by BATCH so both sweeps ship the same
    // stream.
    let ops_per_group: usize = if scale == 0 { 160 } else { 2_048 };
    let shard_counts: &[usize] = if scale == 0 {
        &[1, 2, 4]
    } else {
        &[1, 2, 4, 8]
    };
    // Per-shard channel capacity, which doubles as the group-commit window.
    let capacity = 4;
    // Group names with pairwise-distinct hashes mod 8: the assignment is
    // balanced at every swept shard count.
    let mut names: Vec<String> = Vec::new();
    let mut taken = [false; 8];
    let mut i = 0usize;
    while names.len() < GROUPS {
        let cand = format!("g{i}");
        let slot = shard_of_group(&cand, 8);
        if !taken[slot] {
            taken[slot] = true;
            names.push(cand);
        }
        i += 1;
    }
    let ops = GROUPS * ops_per_group;

    let mut fig = Figure::new(
        "E15 — sharded maintenance scaling (durable group commit)",
        "shards",
        "critical-path work and WAL records per tuple",
    );
    // One durable run: `batch` tuples per append, same total stream.
    // Returns the WAL records the stream wrote (DDL excluded) plus the
    // finished engine for work inspection.
    let run = |shards: usize, batch: usize| {
        let tmp = TempDir::new("e15-json");
        let opts = DurabilityOptions {
            fsync: true,
            ..Default::default()
        };
        let mut db = ShardedDb::open_with(tmp.path(), shards, opts).expect("open");
        for g in &names {
            db.execute(&format!("CREATE GROUP {g}")).expect("ddl");
            db.execute(&format!(
                "CREATE CHRONICLE {g}_c (sn SEQ, acct INT, amount FLOAT) IN GROUP {g}"
            ))
            .expect("ddl");
            db.execute(&format!(
                "CREATE VIEW {g}_sum AS SELECT acct, SUM(amount) AS total \
                 FROM {g}_c GROUP BY acct"
            ))
            .expect("ddl");
        }
        let ddl_records = db.stats().wal_records;
        let pipeline = ShardedPipeline::start(db, capacity);
        let handle = pipeline.handle();
        std::thread::scope(|scope| {
            for g in &names {
                let handle = handle.clone();
                scope.spawn(move || {
                    let chron = format!("{g}_c");
                    for b in 0..ops_per_group / batch {
                        let rows: Vec<Vec<Value>> = (0..batch)
                            .map(|j| {
                                let i = b * batch + j;
                                vec![Value::Int((i % 16) as i64), Value::Float(i as f64 % 9.0)]
                            })
                            .collect();
                        handle
                            .append_nowait(&chron, Chronon(b as i64 + 1), rows)
                            .expect("pipeline alive");
                    }
                });
            }
        });
        let db = pipeline.shutdown();
        (db.stats().wal_records - ddl_records, db)
    };
    let mut critical = Series::new("critical-path work (units)");
    let mut speedup = Series::new("model speedup (total/critical)");
    let mut wal_row = Series::new("WAL records per tuple (row-at-a-time)");
    let mut wal_batch = Series::new(format!("WAL records per tuple (batched x{BATCH})"));
    for &shards in shard_counts {
        let (row_records, db) = run(shards, 1);
        let total = db.stats().work.total() as f64;
        let crit = (0..shards)
            .map(|i| db.shard(i).stats().work.total())
            .max()
            .unwrap_or(0) as f64;
        let (batch_records, batch_db) = run(shards, BATCH);
        assert!(
            batch_db.stats().vectorized_views > 0,
            "batched E15 run never reached the vectorized kernels"
        );
        critical.push(shards as f64, crit);
        speedup.push(shards as f64, total / crit.max(1.0));
        wal_row.push(shards as f64, row_records as f64 / ops as f64);
        wal_batch.push(shards as f64, batch_records as f64 / ops as f64);
    }
    fig.series.push(critical);
    fig.series.push(speedup);
    fig.series.push(wal_row);
    fig.series.push(wal_batch);
    fig.note(format!(
        "{GROUPS} groups x {ops_per_group} durable tuples, group-commit \
         window {capacity}, appended 1 and {BATCH} rows at a time; \
         expected: critical-path work exactly total/shards (balanced \
         groups, deterministic work counters), one WAL record per tuple \
         row-at-a-time and one per {BATCH} tuples batched"
    ));
    fig
}

// ===================================================================== E16

/// E16 — follower catch-up: WAL bytes shipped and replication lag.
/// A fresh follower pulls the leader's entire WAL through the [`Shipper`]
/// cursor machinery — the same code path the TCP server drives, minus the
/// socket — persists it byte-identically, and replays it through the
/// recovery path. Catch-up cost is linear in shipped WAL bytes (not in
/// how *old* the history is), lag after one uninterrupted catch-up is 0,
/// and the follower's views are byte-identical to the leader's.
pub fn e16_replication(scale: u32) -> Figure {
    const SHARDS: usize = 2;
    let sizes: &[usize] = if scale == 0 {
        &[400, 800, 1_600]
    } else {
        &[4_000, 8_000, 16_000]
    };
    // Small segments so every size rotates several times: catch-up covers
    // the sealed-chain walk, not just one active-segment tail.
    let opts = || DurabilityOptions {
        segment_bytes: 64 << 10,
        fsync: true,
        ..Default::default()
    };
    // Two group names on distinct shards mod 2 — both shards carry WAL.
    let mut names: Vec<String> = Vec::new();
    let mut taken = [false; SHARDS];
    let mut i = 0usize;
    while names.len() < SHARDS {
        let cand = format!("g{i}");
        let slot = shard_of_group(&cand, SHARDS);
        if !taken[slot] {
            taken[slot] = true;
            names.push(cand);
        }
        i += 1;
    }

    let mut fig = Figure::new(
        "E16 — follower catch-up over WAL shipping",
        "leader appends before the follower attaches",
        "bytes, lag",
    );
    let mut shipped = Series::new("WAL bytes shipped");
    let mut lag = Series::new("replication lag after catch-up (records)");
    let mut all_identical = true;
    for &n in sizes {
        let leader_tmp = TempDir::new("e16-leader");
        let mut db = ShardedDb::open_with(leader_tmp.path(), SHARDS, opts()).expect("open");
        for g in &names {
            db.execute(&format!("CREATE GROUP {g}")).expect("ddl");
            db.execute(&format!(
                "CREATE CHRONICLE {g}_c (sn SEQ, acct INT, amount FLOAT) IN GROUP {g}"
            ))
            .expect("ddl");
            db.execute(&format!(
                "CREATE VIEW {g}_sum AS SELECT acct, SUM(amount) AS total \
                 FROM {g}_c GROUP BY acct"
            ))
            .expect("ddl");
        }
        let pipeline = ShardedPipeline::start(db, 64);
        let handle = pipeline.handle();
        std::thread::scope(|scope| {
            for g in &names {
                let handle = handle.clone();
                scope.spawn(move || {
                    let chron = format!("{g}_c");
                    for i in 0..n / SHARDS {
                        handle
                            .append_nowait(
                                &chron,
                                Chronon(i as i64 + 1),
                                vec![vec![
                                    Value::Int((i % 16) as i64),
                                    Value::Float(i as f64 % 9.0),
                                ]],
                            )
                            .expect("pipeline alive");
                    }
                });
            }
        });
        let db = pipeline.shutdown();

        // The follower attaches cold and catches up in one uninterrupted
        // pull — what a freshly started `Replica` does between connect
        // and lag 0.
        let follower_tmp = TempDir::new("e16-follower");
        let mut follower =
            FollowerDb::open_with(follower_tmp.path(), SHARDS, opts()).expect("open follower");
        let bytes = ship_until_caught_up(&db, &mut follower);
        shipped.push(n as f64, bytes as f64);
        lag.push(n as f64, follower.replication_lag().unwrap_or(0) as f64);
        all_identical &= follower.db().snapshot_views() == db.snapshot_views();
    }
    fig.series.push(shipped);
    fig.series.push(lag);
    fig.note(format!(
        "{SHARDS} shards, 64 KiB segments, durable leader and follower; \
         expected: shipped bytes linear in appends, lag 0 after catch-up; \
         follower views byte-identical to the leader at every size: \
         {all_identical}"
    ));
    fig
}

// ===================================================================== E18

/// One placement mode's outcome in the E18 sweep.
struct SkewRun {
    /// Per-shard maintenance work charged during the measured phase.
    deltas: Vec<u64>,
    /// Group relocations the pass applied.
    moves: usize,
    /// Full view state after the measured phase.
    snapshot: Vec<(String, Vec<u8>)>,
}

/// E18 — skew-resilient sharding (DESIGN.md §16): Zipf(θ)-distributed
/// append traffic over a group set named adversarially so the `HOT`
/// highest-rank groups all hash to shard 0. Under static FNV placement
/// the critical path (the most-loaded shard's maintenance work) absorbs
/// nearly the whole stream; one online heavy-light rebalance after the
/// warmup phase dedicates a shard to the head group and evacuates the
/// stranded lights, restoring near-balanced execution. Placement is
/// execution-only: the measured phase's *total* work is bit-identical
/// across modes and the final view snapshots are byte-equal — only the
/// per-shard split moves. The gate (`crates/bench/tests/e18_gate.rs`)
/// asserts on these deterministic work counters.
pub fn e18_zipf_skew(scale: u32) -> Figure {
    const SHARDS: usize = 8;
    /// Zipf ranks that co-hash to shard 0 under static placement.
    const HOT: usize = 32;
    let groups: usize = if scale == 0 { 256 } else { 512 };
    let warmup: usize = if scale == 0 { 4_096 } else { 16_384 };
    let measured: usize = if scale == 0 { 8_192 } else { 32_768 };
    let thetas: &[f64] = if scale == 0 {
        &[0.0, 1.1]
    } else {
        &[0.0, 0.6, 1.1]
    };

    // Adversarial naming: the HOT highest-Zipf-rank groups get names that
    // all hash to shard 0 (searched, not assumed), the tail is named
    // naturally and lands wherever FNV puts it.
    let mut names: Vec<String> = Vec::with_capacity(groups);
    let mut i = 0usize;
    while names.len() < HOT {
        let cand = format!("h{i}");
        if shard_of_group(&cand, SHARDS) == 0 {
            names.push(cand);
        }
        i += 1;
    }
    for j in 0..groups - HOT {
        names.push(format!("t{j}"));
    }

    // One schedule per θ, shared verbatim by both placement modes:
    // (group rank, per-group chronon).
    let schedule_for = |theta: f64| -> Vec<(usize, i64)> {
        let zipf = Zipf::new(groups, theta);
        let mut rng = SmallRng::seed_from_u64(0xe18_5eed ^ theta.to_bits());
        let mut clock = vec![0i64; groups];
        (0..warmup + measured)
            .map(|_| {
                let g = zipf.sample(&mut rng);
                clock[g] += 1;
                (g, clock[g])
            })
            .collect()
    };

    let run = |schedule: &[(usize, i64)], heavy_light: bool| -> SkewRun {
        let mut db = ShardedDb::new(SHARDS).expect("in-memory shards");
        for g in &names {
            db.execute(&format!("CREATE GROUP {g}")).expect("ddl");
            db.execute(&format!(
                "CREATE CHRONICLE {g}_c (sn SEQ, acct INT, amount FLOAT) IN GROUP {g}"
            ))
            .expect("ddl");
            db.execute(&format!(
                "CREATE VIEW {g}_sum AS SELECT acct, SUM(amount) AS total \
                 FROM {g}_c GROUP BY acct"
            ))
            .expect("ddl");
        }
        let feed = |db: ShardedDb, slice: &[(usize, i64)]| -> ShardedDb {
            let pipeline = ShardedPipeline::start(db, 64);
            let handle = pipeline.handle();
            for &(g, at) in slice {
                handle
                    .append_nowait(
                        &format!("{}_c", names[g]),
                        Chronon(at),
                        vec![vec![Value::Int((g % 16) as i64), Value::Float(1.0)]],
                    )
                    .expect("pipeline alive");
            }
            pipeline.shutdown()
        };
        // Phase 1 — warmup feeds the decayed per-group rate counters; the
        // pipeline shutdown barrier is the in-flight-delta drain, so the
        // rebalance below moves fully quiesced groups.
        let (w, m) = schedule.split_at(warmup);
        let mut db = feed(db, w);
        let moves = if heavy_light {
            db.rebalance().expect("rebalance").len()
        } else {
            0
        };
        let base: Vec<u64> = (0..SHARDS)
            .map(|i| db.shard(i).stats().work.total())
            .collect();
        // Phase 2 — the measured tail of the same stream.
        let db = feed(db, m);
        let deltas: Vec<u64> = (0..SHARDS)
            .map(|i| db.shard(i).stats().work.total() - base[i])
            .collect();
        SkewRun {
            deltas,
            moves,
            snapshot: db.snapshot_views(),
        }
    };

    let mut fig = Figure::new(
        "E18 — skew-resilient sharding: heavy-light placement vs adversarial hashing",
        "theta (Zipf skew)",
        "phase-2 critical-path maintenance work",
    );
    let mut crit_static = Series::new("critical-path work (static hash)");
    let mut crit_hl = Series::new("critical-path work (heavy-light)");
    let mut ratio = Series::new("skew resilience (x)");
    let mut total_static = Series::new("phase-2 total work (static hash)");
    let mut total_hl = Series::new("phase-2 total work (heavy-light)");
    let mut moves_s = Series::new("rebalance moves");
    let mut all_identical = true;
    for &theta in thetas {
        let schedule = schedule_for(theta);
        let st = run(&schedule, false);
        let hl = run(&schedule, true);
        all_identical &= st.snapshot == hl.snapshot;
        crit_static.push(theta, *st.deltas.iter().max().expect("shards") as f64);
        crit_hl.push(theta, *hl.deltas.iter().max().expect("shards") as f64);
        ratio.push(
            theta,
            st.deltas.iter().max().copied().unwrap_or(0) as f64
                / hl.deltas.iter().max().copied().unwrap_or(0).max(1) as f64,
        );
        total_static.push(theta, st.deltas.iter().sum::<u64>() as f64);
        total_hl.push(theta, hl.deltas.iter().sum::<u64>() as f64);
        moves_s.push(theta, hl.moves as f64);
    }
    fig.series = vec![crit_static, crit_hl, ratio, total_static, total_hl, moves_s];
    fig.note(format!(
        "{groups} groups on {SHARDS} shards; top-{HOT} Zipf ranks co-hash to \
         shard 0; {warmup} warmup + {measured} measured appends per mode; \
         expected: at theta=1.1 heavy-light cuts the critical path >=3x while \
         total work stays bit-identical and view snapshots byte-equal; at \
         theta=0 the classifier finds no heavies and placement is untouched"
    ));
    fig.note(format!(
        "view snapshots identical across modes at every theta: {all_identical}"
    ));
    fig
}

// ===================================================================== E19

/// E19 — leader failover: fenced promotion and the retry storm.
/// A durable leader executes stamped statements across sessioned clients
/// while a semi-synchronous follower mirrors its WAL; then the leader
/// dies. Three quantities: the WAL records the [`FollowerDb::promote`]
/// recovery replays to turn the follower into a serving leader under a
/// new fenced term; the *retry storm* a failover triggers — every client
/// re-sends its newest `(session, seq)` stamp and all of them must be
/// answered from the dedupe cache without re-applying; and the *fresh*
/// stamps applied on the promoted lineage. A stale-term probe against a
/// follower of the new lineage must be refused with the typed fencing
/// error after every promotion.
pub fn e19_failover(scale: u32) -> Figure {
    const SHARDS: usize = 2;
    const SESSIONS: u64 = 8;
    let sizes: &[usize] = if scale == 0 {
        &[400, 800, 1_600]
    } else {
        &[4_000, 8_000, 16_000]
    };
    let retries_per_session: usize = if scale == 0 { 50 } else { 400 };
    let fresh_per_session: usize = if scale == 0 { 50 } else { 400 };
    let opts = || DurabilityOptions {
        segment_bytes: 64 << 10,
        fsync: true,
        ..Default::default()
    };
    // Two group names on distinct shards mod 2 — both shards carry WAL.
    let mut names: Vec<String> = Vec::new();
    let mut taken = [false; SHARDS];
    let mut i = 0usize;
    while names.len() < SHARDS {
        let cand = format!("g{i}");
        let slot = shard_of_group(&cand, SHARDS);
        if !taken[slot] {
            taken[slot] = true;
            names.push(cand);
        }
        i += 1;
    }

    let mut fig = Figure::new(
        "E19 — leader failover: fenced promotion and retryable sessions",
        "stamped appends before the leader dies",
        "records, statements",
    );
    let mut replayed = Series::new("WAL records replayed at promotion");
    let mut retried = Series::new("retries answered from the dedupe cache");
    let mut fresh = Series::new("fresh stamps applied after failover");
    let mut all_cached = true;
    let mut all_fenced = true;
    for &n in sizes {
        let leader_tmp = TempDir::new("e19-leader");
        let mut db = ShardedDb::open_with(leader_tmp.path(), SHARDS, opts()).expect("open");
        for g in &names {
            db.execute(&format!("CREATE GROUP {g}")).expect("ddl");
            db.execute(&format!(
                "CREATE CHRONICLE {g}_c (sn SEQ, acct INT, amount FLOAT) IN GROUP {g}"
            ))
            .expect("ddl");
            db.execute(&format!(
                "CREATE VIEW {g}_sum AS SELECT acct, SUM(amount) AS total \
                 FROM {g}_c GROUP BY acct"
            ))
            .expect("ddl");
        }
        // Sessioned clients append round-robin across both groups; each
        // statement carries a `(session, seq)` stamp and each session
        // remembers its newest one — what a real client re-sends when the
        // ack is lost to a failover.
        let mut sn = [0u64; SHARDS];
        let mut last: Vec<(u64, String)> = vec![(0, String::new()); SESSIONS as usize];
        for i in 0..n {
            let session = (i as u64 % SESSIONS) + 1;
            let g = i % SHARDS;
            sn[g] += 1;
            let sql = format!(
                "APPEND INTO {}_c VALUES ({}, {}, {})",
                names[g],
                sn[g],
                i % 16,
                i % 9
            );
            let seq = last[session as usize - 1].0 + 1;
            db.execute_stamped(&sql, session, seq)
                .expect("stamped append");
            last[session as usize - 1] = (seq, sql);
        }

        // The follower mirrors the leader's WAL in one uninterrupted pull.
        let follower_tmp = TempDir::new("e19-follower");
        let mut follower =
            FollowerDb::open_with(follower_tmp.path(), SHARDS, opts()).expect("open follower");
        ship_until_caught_up(&db, &mut follower);

        // The leader dies; the follower is promoted: the full fenced
        // takeover drops the ingest plumbing, recovers a serving
        // `ShardedDb` from the local files, and begins the next term.
        drop(db);
        let mut promoted = follower.promote().expect("promote");
        replayed.push(n as f64, promoted.stats().recovery_replayed_records as f64);

        // A follower of the *new* lineage refuses the deposed term with
        // the typed fencing error.
        let refollow_tmp = TempDir::new("e19-refollower");
        let mut refollower =
            FollowerDb::open_with(refollow_tmp.path(), SHARDS, opts()).expect("open refollower");
        ship_until_caught_up(&promoted, &mut refollower);
        all_fenced &= matches!(
            refollower.check_leader_term(promoted.term().saturating_sub(1)),
            Err(chronicle_types::ChronicleError::Fenced { .. })
        );
        drop(refollower);

        // The retry storm: every session re-sends its newest stamp, over
        // and over. Every one must be answered from the dedupe cache —
        // counted by the session-replay statistic — with zero state
        // change.
        let before = promoted.snapshot_views();
        let replays_before = promoted.stats().session_replays;
        for _ in 0..retries_per_session {
            for session in 1..=SESSIONS {
                let (seq, sql) = &last[session as usize - 1];
                promoted
                    .execute_stamped(sql, session, *seq)
                    .expect("retry answered from the dedupe cache");
            }
        }
        let replays = promoted.stats().session_replays - replays_before;
        retried.push(n as f64, replays as f64);
        all_cached &=
            promoted.snapshot_views() == before && replays == retries_per_session as u64 * SESSIONS;

        // Fresh stamped work on the promoted lineage.
        let appends_before = promoted.stats().appends;
        for k in 0..fresh_per_session {
            for session in 1..=SESSIONS {
                let g = k % SHARDS;
                sn[g] += 1;
                let sql = format!(
                    "APPEND INTO {}_c VALUES ({}, {}, {})",
                    names[g],
                    sn[g],
                    k % 16,
                    k % 9
                );
                let seq = last[session as usize - 1].0 + 1;
                promoted
                    .execute_stamped(&sql, session, seq)
                    .expect("fresh stamped append");
                last[session as usize - 1] = (seq, sql);
            }
        }
        fresh.push(n as f64, (promoted.stats().appends - appends_before) as f64);
    }
    fig.series.push(replayed);
    fig.series.push(retried);
    fig.series.push(fresh);
    fig.note(format!(
        "{SHARDS} shards, {SESSIONS} sessions, 64 KiB segments, durable \
         leader and follower; {retries_per_session} retries and \
         {fresh_per_session} fresh stamps per session after each promotion; \
         expected: promotion replays the whole uncheckpointed log (linear in \
         appends), every retry answered from the dedupe cache with zero \
         state change: {all_cached}; stale-term probe fenced after every \
         promotion: {all_fenced}"
    ));
    fig
}

/// Pump the [`Shipper`] until the follower has every leader WAL byte,
/// then record the leader's durable frontier so replication lag reads 0.
/// Returns the WAL bytes shipped.
fn ship_until_caught_up(leader: &ShardedDb, follower: &mut FollowerDb) -> u64 {
    let mut shipper = Shipper::new(&follower.applied_lsns(), DEFAULT_CHUNK);
    let mut bytes = 0u64;
    loop {
        let caught_up = {
            let follower = &mut *follower;
            let bytes = &mut bytes;
            shipper
                .pump(leader, &mut |ev| match ev {
                    ShipEvent::Start { shard, first_lsn } => {
                        follower.begin_segment(shard, first_lsn)
                    }
                    ShipEvent::Bytes {
                        shard,
                        offset,
                        bytes: chunk,
                        ..
                    } => {
                        *bytes += chunk.len() as u64;
                        follower.ingest(shard, offset, &chunk).map(|_| ())
                    }
                    ShipEvent::Seal { shard, first_lsn } => follower.seal_segment(shard, first_lsn),
                })
                .expect("ship")
        };
        if caught_up {
            break;
        }
    }
    for shard in 0..follower.applied_lsns().len() {
        let durable = WalSource::last_durable_lsn(leader, shard).expect("leader lsn");
        follower.note_leader_durable(shard, durable);
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    // Shape assertions at scale 0 — fast, deterministic via work counters
    // wherever possible.

    #[test]
    fn e1_naive_grows_sca_flat() {
        let fig = e1_chronicle_size(0);
        let naive = fig.series("naive tuples read").expect("series");
        assert!(naive.growth() > 5.0, "naive work should track |C|");
        let sca = fig.series("SCA tuples touched").expect("series");
        assert!(sca.growth() < 1.5, "SCA work must not grow with |C|");
    }

    #[test]
    fn e2_matches_formula() {
        let fig = e2_ca_cost(0);
        let m = fig.series("measured (u=0)").expect("series");
        let p = fig.series("predicted (u=0)").expect("series");
        assert_eq!(m.points, p.points);
    }

    #[test]
    fn e3_product_scales_join_does_not() {
        let fig = e3_keyjoin_vs_product(0);
        assert!(fig.series("product work").expect("s").growth() > 5.0);
        assert!(fig.series("key join work").expect("s").growth() < 1.5);
    }

    #[test]
    fn e4_flat() {
        let fig = e4_ca1_constant(0);
        let s = &fig.series[0];
        let ys: Vec<f64> = s.points.iter().map(|&(_, y)| y).collect();
        let min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = ys.iter().cloned().fold(0.0, f64::max);
        assert!(max / min < 1.6, "CA₁ work must stay flat, got {min}..{max}");
    }

    #[test]
    fn e5_linear_in_t() {
        let (_, fig_t) = e5_sca_apply(0);
        let s = &fig_t.series[0];
        // Work at t=256 should be ~64x work at t=4 (allow slack for fixed
        // overheads).
        let y4 = s.points.iter().find(|&&(x, _)| x == 4.0).expect("t=4").1;
        let y256 = s
            .points
            .iter()
            .find(|&&(x, _)| x == 256.0)
            .expect("t=256")
            .1;
        let ratio = y256 / y4;
        assert!((32.0..=96.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn e5_apply_work_flat_in_view_size() {
        let (fig_v, _) = e5_sca_apply(0);
        assert!(fig_v.series[0].growth() < 1.2, "{:?}", fig_v.series[0]);
    }

    #[test]
    fn e6_separation() {
        let fig = e6_class_separation(0);
        assert!(fig.series("SCA₁ work").expect("s").growth() < 1.2);
        assert!(fig.series("SCA⋈ work").expect("s").growth() < 1.2);
        assert!(fig.series("SCA (product) work").expect("s").growth() > 4.0);
    }

    #[test]
    fn e7_grows_with_chronicle() {
        let fig = e7_maximality(0);
        let s = fig.series("tuples scanned per append").expect("s");
        assert!(
            s.growth() > 3.0,
            "beyond-CA maintenance must scale with |C|"
        );
        assert!(fig.notes.iter().any(|n| n.contains("Theorem 4.3")));
    }

    #[test]
    fn e8_cyclic_buffer_bounded_while_alternatives_track_width() {
        let fig = e8_sliding_window(0);
        let cyclic = fig
            .series("cyclic buffer accumulator updates+retractions")
            .expect("s");
        assert!(cyclic.points.iter().all(|&(_, y)| y < 9.0), "{cyclic:?}");
        assert!(fig.series("periodic-views work").expect("s").growth() > 3.0);
        assert!(
            fig.series("naive window recompute tuples summed")
                .expect("s")
                .growth()
                > 3.0
        );
    }

    #[test]
    fn e9_routing_maintains_only_the_matching_view() {
        let fig = e9_router(0);
        assert_eq!(fig.series("routed work").expect("s").growth(), 1.0);
        let routed = fig.series("routed views maintained").expect("s");
        assert!(routed.points.iter().all(|&(_, y)| y == 1.0), "{routed:?}");
        let all = fig.series("scan-all views maintained").expect("s");
        assert!(all.points.iter().all(|&(k, y)| y == k), "{all:?}");
    }

    #[test]
    fn e10_final_agreement_and_staleness() {
        let fig = e10_tiered(0);
        let inc = fig.series("incremental correct").expect("s");
        let batch = fig.series("batch correct").expect("s");
        let active = fig.series("accounts with activity").expect("s");
        // Incremental is fully correct at every checkpoint.
        for (i, (&(_, y), &(_, total))) in inc.points.iter().zip(&active.points).enumerate() {
            assert_eq!(y, total, "checkpoint {i}");
        }
        // Batch has no answer (0 correct) before the period ends, and the
        // full answer at the end.
        assert_eq!(batch.points[0].1, 0.0);
        assert_eq!(
            batch.points.last().expect("final").1,
            active.points.last().expect("final").1
        );
    }

    #[test]
    fn e12_oracle_agreement() {
        let fig = e12_proactive(0);
        assert_eq!(fig.series[0].points[0].1, 1.0, "incremental == oracle");
        assert!(fig.notes.iter().any(|n| n.contains("retroactive")));
    }

    #[test]
    fn e15_sweeps_both_append_granularities() {
        let fig = e15_sharding(0);
        // Balanced groups: the most-loaded shard carries exactly
        // total/shards of the maintenance work.
        let speedup = fig
            .series("model speedup (total/critical)")
            .expect("series");
        for &(shards, y) in &speedup.points {
            assert_eq!(y, shards, "critical path must be total/shards");
        }
        // One WAL record per append: per tuple row-at-a-time, per 32
        // tuples batched.
        let row = fig
            .series("WAL records per tuple (row-at-a-time)")
            .expect("series");
        let batch = fig
            .series("WAL records per tuple (batched x32)")
            .expect("series");
        assert_eq!(row.points.len(), speedup.points.len());
        assert!(row.points.iter().all(|&(_, y)| y == 1.0), "{row:?}");
        assert!(
            batch.points.iter().all(|&(_, y)| y == 1.0 / 32.0),
            "{batch:?}"
        );
    }

    #[test]
    fn e16_lag_zero_views_identical_bytes_linear() {
        let fig = e16_replication(0);
        let lag = fig
            .series("replication lag after catch-up (records)")
            .expect("series");
        assert!(
            lag.points.iter().all(|&(_, y)| y == 0.0),
            "an uninterrupted catch-up must end at lag 0, got {:?}",
            lag.points
        );
        let shipped = fig.series("WAL bytes shipped").expect("series");
        assert!(
            shipped.growth() > 2.0,
            "shipped bytes must track history length, got {:?}",
            shipped.points
        );
        assert!(
            fig.notes.iter().any(|n| n.contains("every size: true")),
            "follower views must mirror the leader: {:?}",
            fig.notes
        );
    }

    #[test]
    fn e19_promotes_fenced_and_answers_retries_from_cache() {
        let fig = e19_failover(0);
        // Promotion recovers from the follower's files: at least one
        // record per stamped append.
        let replayed = fig
            .series("WAL records replayed at promotion")
            .expect("series");
        assert!(replayed.points.iter().all(|&(n, y)| y >= n), "{replayed:?}");
        // Scale 0 sends 50 retries and 50 fresh stamps from each of 8
        // sessions: every retry is a session replay, every fresh stamp an
        // applied append.
        for name in [
            "retries answered from the dedupe cache",
            "fresh stamps applied after failover",
        ] {
            let s = fig.series(name).expect("series");
            assert!(s.points.iter().all(|&(_, y)| y == 400.0), "{s:?}");
        }
        assert!(
            fig.notes
                .iter()
                .any(|n| n.contains("zero state change: true")),
            "every retry must be a dedupe-cache hit: {:?}",
            fig.notes
        );
        assert!(
            fig.notes
                .iter()
                .any(|n| n.contains("fenced after every promotion: true")),
            "the deposed term must be fenced: {:?}",
            fig.notes
        );
    }

    /// The committed `BENCH_E*.json` files are gated by byte equality, so
    /// every figure must be a pure function of the code and the scale.
    #[test]
    fn every_record_is_byte_identical_across_runs() {
        let render = || -> Vec<String> {
            ALL.iter()
                .map(|(id, run)| crate::json::experiment_doc(id, 0, &run(0)).render())
                .collect()
        };
        let (first, second) = (render(), render());
        for ((id, _), (a, b)) in ALL.iter().zip(first.iter().zip(&second)) {
            assert_eq!(a, b, "{id} differs between two runs");
        }
    }
}
