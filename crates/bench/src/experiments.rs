//! The twelve derived experiments E1–E12 (DESIGN.md §6).
//!
//! Each function builds its own database, runs its sweep, and returns one
//! or more [`Figure`]s. The `experiments` binary renders them; the
//! Criterion benches reuse the same builders with reduced parameter sets.
//! A `scale` argument (1 = full) shrinks sweeps for quick runs and tests.

use chronicle_algebra::delta::{DeltaBatch, DeltaEngine};
use chronicle_algebra::{
    AggFunc, AggSpec, CaExpr, CmpOp, Predicate, RelationRef, ScaExpr, WorkCounter,
};
use chronicle_db::baseline::{NaiveRecomputeView, ProceduralSummary, StoredThetaJoinCount};
use chronicle_db::pipeline::ShardedPipeline;
use chronicle_db::{shard_of_group, ChronicleDb, DurabilityOptions, FollowerDb, ShardedDb};
use chronicle_net::{ShipEvent, Shipper, WalSource, DEFAULT_CHUNK};
use chronicle_store::{Catalog, Retention};
use chronicle_testkit::{SeedableRng, SmallRng, TempDir, Zipf};
use chronicle_types::{AttrType, Attribute, ChronicleId, Chronon, Schema, SeqNo, Tuple, Value};
use chronicle_views::{
    AppendEvent, BatchDiscount, BatchMode, Calendar, Maintainer, PeriodicViewSet, RouteMode,
    SlidingWindow, TierSchedule,
};
use chronicle_workload::{AtmGen, CallGen, TradeGen};

use crate::harness::{time_per_iter, Figure, Series};

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
    let mut sca_time = Series::new("SCA time (ns)");
    let mut naive_time = Series::new("naive recompute time (ns)");
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
        let before = db.stats().clone();
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
        let after = db.stats();
        let dt = (after.maintenance_nanos - before.maintenance_nanos) as f64 / probes as f64;
        let dw = (after.work.total() - before.work.total()) as f64 / probes as f64;
        sca_time.push(n as f64, dt);
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
        // Measure a handful of refreshes (each O(|C|)).
        let refreshes = if n >= 100_000 { 3 } else { 10 };
        let t = time_per_iter(refreshes, || {
            naive.refresh(&cat).expect("stored");
        });
        naive_time.push(n as f64, t);
        naive_work.push(n as f64, naive.last_read as f64);
    }
    fig.series = vec![sca_time, naive_time, sca_work, naive_work];
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
        "expected: product work ~|R| and time ~linear; key-join work flat (1 probe), time ~log|R|.",
    );
    let mut join_time = Series::new("key join time (ns)");
    let mut prod_time = Series::new("product time (ns)");
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
        let mut seq = 0u64;
        let mut batch = || {
            seq += 1;
            DeltaBatch {
                chronicle: c,
                seq: SeqNo(seq),
                tuples: vec![call_tuple(seq, (seq % r as u64) as i64, 1.0)],
            }
        };
        let mut wj = WorkCounter::default();
        let b = batch();
        let tj = time_per_iter(200, || {
            engine.delta_sca(&join_expr, &b, &mut wj).expect("delta");
        });
        let mut wp = WorkCounter::default();
        let b = batch();
        let iters = if r >= 100_000 { 5 } else { 50 };
        let tp = time_per_iter(iters, || {
            engine.delta_sca(&prod_expr, &b, &mut wp).expect("delta");
        });
        join_time.push(r as f64, tj);
        prod_time.push(r as f64, tp);
        join_work.push(r as f64, wj.total() as f64 / 200.0);
        prod_work.push(r as f64, wp.total() as f64 / iters as f64);
    }
    fig.series = vec![join_time, prod_time, join_work, prod_work];
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
        "E5a — apply time vs view size |V| (Thm 4.4)",
        "|V| (groups)",
        "apply time per batch (ns)",
    );
    fig_v.note("expected: logarithmic growth (ordered-index probe per group).");
    let mut t_series = Series::new("apply time (ns)");
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
        // Probe: batches hitting one existing group.
        let iters = 300usize;
        let t = time_per_iter(iters, || {
            seq += 1;
            let ev = AppendEvent {
                chronicle: c,
                seq: SeqNo(seq),
                chronon: Chronon(seq as i64),
                tuples: vec![call_tuple(seq, (seq % v as u64) as i64, 1.0)],
            };
            maintainer.on_append(&cat, &ev).expect("maintain");
        });
        t_series.push(v as f64, t);
    }
    fig_v.series.push(t_series);

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
    let mut sk_t = Series::new("SCA⋈ time (ns)");
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
        let tk = time_per_iter(500, || {
            let mut w = WorkCounter::default();
            engine.delta_sca(&vk, &b, &mut w).expect("delta");
        });
        sk_t.push(r as f64, tk);
    }
    fig.series = vec![s1, sk, sp, sk_t];
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
        "per-append cost",
    );
    fig.note("expected: cyclic buffer flat in w; per-window periodic views ~w; naive recompute ~tuples-in-window.");
    let mut cyclic = Series::new("cyclic buffer time (ns)");
    let mut periodic = Series::new("periodic-views time (ns)");
    let mut naive = Series::new("naive window recompute time (ns)");
    for &w in &widths {
        // (a) cyclic buffer.
        let mut gen = TradeGen::new(7);
        let mut win =
            SlidingWindow::new(Chronon(0), w, 1, vec![0], vec![AggFunc::Sum(1)]).expect("valid");
        let mut i = 0i64;
        let t_cyc = time_per_iter(appends, || {
            let row = gen.next_row();
            let t = Tuple::new(vec![row[0].clone(), row[1].clone()]);
            win.insert(Chronon(i), &t).expect("monotone");
            i += 1;
        });
        cyclic.push(w as f64, t_cyc);

        // (b) periodic family over a sliding calendar (each append fans out
        // to w windows).
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
        let mut set = PeriodicViewSet::new("win", expr, cal, Some(0));
        let mut gen = TradeGen::new(7);
        let mut seq = 0u64;
        let per_iters = appends.min(1_000);
        let t_per = time_per_iter(per_iters, || {
            seq += 1;
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
            let mut wk = WorkCounter::default();
            set.on_append(&cat, &ev, &mut wk).expect("maintain");
        });
        periodic.push(w as f64, t_per);

        // (c) naive: store the window, recompute the moving sum on demand.
        let mut stored: std::collections::VecDeque<(i64, i64)> = Default::default();
        let mut gen = TradeGen::new(7);
        let mut i = 0i64;
        let t_naive = time_per_iter(appends, || {
            let row = gen.next_row();
            stored.push_back((i, row[1].as_int().expect("shares")));
            while let Some(&(t0, _)) = stored.front() {
                if t0 <= i - w as i64 {
                    stored.pop_front();
                } else {
                    break;
                }
            }
            // The "query each append" pattern: sum the whole window.
            let _sum: i64 = std::hint::black_box(stored.iter().map(|&(_, s)| s).sum());
            i += 1;
        });
        naive.push(w as f64, t_naive);
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
        "E9 — affected-view routing: per-append time vs registered views (§5.2)",
        "registered views",
        "per-append time (ns)",
    );
    fig.note("each view guards one caller id; an append matches exactly one view.");
    fig.note("expected: routed cost ≪ scan-all cost as views grow (guard eval is cheap; delta propagation is not free).");
    let mut routed = Series::new("routed (ns)");
    let mut scan_all = Series::new("scan-all (ns)");
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
            let mut seq = 0u64;
            let iters = if k >= 1024 { 200 } else { 500 };
            let t = time_per_iter(iters, || {
                seq += 1;
                let ev = AppendEvent {
                    chronicle: c,
                    seq: SeqNo(seq),
                    chronon: Chronon(seq as i64),
                    tuples: vec![call_tuple(seq, (seq % k as u64) as i64, 1.0)],
                };
                maintainer.on_append(&cat, &ev).expect("maintain");
            });
            match mode {
                RouteMode::Routed => routed.push(k as f64, t),
                RouteMode::ScanAll => scan_all.push(k as f64, t),
            }
        }
    }
    fig.series = vec![routed, scan_all];
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

// ===================================================================== E11

/// E11 — §1 prose: transaction throughput and summary-query latency. The
/// persistent-view lookup is compared with the procedural summary field
/// (ceiling) and with scanning the stored window (what SQL-over-history
/// would do).
pub fn e11_throughput(scale: u32) -> (Figure, Figure) {
    let n: usize = if scale == 0 { 2_000 } else { 50_000 };
    let accounts = 1_000i64;

    // Throughput: pipeline with 4 producers and the balances view.
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT) RETAIN LAST 10000")
        .expect("ddl");
    db.execute("CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM atm GROUP BY acct")
        .expect("ddl");
    let pipeline = ShardedPipeline::start(db.into(), 1024);
    let start = std::time::Instant::now();
    let mut joins = Vec::new();
    for p in 0..4u64 {
        let h = pipeline.handle();
        let per = n / 4;
        joins.push(std::thread::spawn(move || {
            let mut gen = AtmGen::new(100 + p, 1_000);
            for _ in 0..per {
                let row = gen.next_row();
                h.append_nowait(
                    "atm",
                    Chronon(0),
                    vec![vec![row[0].clone(), row[1].clone()]],
                )
                .expect("pipeline alive");
            }
        }));
    }
    for j in joins {
        j.join().expect("producer");
    }
    let db = pipeline.shutdown();
    let elapsed = start.elapsed().as_secs_f64();
    let appends_done = db.stats().appends as f64;

    let mut fig_tp = Figure::new(
        "E11a — append throughput with maintenance (pipeline, 4 producers)",
        "producers",
        "appends/sec",
    );
    let mut tp = Series::new("appends/sec");
    tp.push(4.0, appends_done / elapsed);
    fig_tp.series.push(tp);
    fig_tp.note(format!(
        "{appends_done} appends in {elapsed:.2}s; p50 maintenance {} ns, p99 {} ns",
        db.stats().latency_percentile(0.5),
        db.stats().latency_percentile(0.99),
    ));

    // Query latency: view lookup vs procedural field vs window scan.
    let mut fig_q = Figure::new(
        "E11b — summary-query latency (§1: \"answered in subseconds\")",
        "strategy (1=view, 2=procedural, 3=window scan)",
        "latency per query (ns)",
    );
    let mut lat = Series::new("latency (ns)");
    // Rebuild the same workload on a fresh db and a procedural baseline.
    let mut db2 = ChronicleDb::new();
    db2.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT) RETAIN ALL")
        .expect("ddl");
    db2.execute("CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM atm GROUP BY acct")
        .expect("ddl");
    let mut proc = ProceduralSummary::running_sum(vec![1], 2);
    let mut gen = AtmGen::new(55, accounts);
    for i in 0..n.min(20_000) {
        let row = gen.next_row();
        let out = db2
            .append(
                "atm",
                Chronon(i as i64),
                &[vec![row[0].clone(), row[1].clone()]],
            )
            .expect("append");
        let _ = out;
        proc.on_tuple(&Tuple::new(vec![
            Value::Seq(SeqNo(i as u64 + 1)),
            row[0].clone(),
            row[1].clone(),
        ]));
    }
    let key = [Value::Int(7)];
    let t_view = time_per_iter(2_000, || {
        std::hint::black_box(db2.query_view_key("balances", &key).expect("view"));
    });
    let t_proc = time_per_iter(2_000, || {
        std::hint::black_box(proc.get(&key));
    });
    let cid = db2.catalog().chronicle_id("atm").expect("exists");
    let t_scan = time_per_iter(20, || {
        let total: f64 = db2
            .catalog()
            .chronicle(cid)
            .scan_window()
            .filter(|t| t.get(1) == &key[0])
            .map(|t| t.get(2).as_float().expect("amount"))
            .sum();
        std::hint::black_box(total);
    });
    lat.push(1.0, t_view);
    lat.push(2.0, t_proc);
    lat.push(3.0, t_scan);
    fig_q.series.push(lat);
    fig_q.note("expected: view lookup within ~an order of magnitude of the hand-coded field; window scan orders of magnitude slower and growing with history.");
    (fig_tp, fig_q)
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
    let expr = db
        .maintainer()
        .view_by_name("nj_flights")
        .expect("registered")
        .expr();
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

/// E14 — recovery time vs pre-checkpoint chronicle length with a fixed
/// WAL tail (the durability analogue of Prop. 3.1). A checkpoint persists
/// the views in O(|V|), so reopening replays only the tail; recovery time
/// must stay flat while the pre-checkpoint history grows. This is the
/// measurement core of the `e14_recovery` bench target, exposed here so
/// the `experiments json` mode can emit `BENCH_E14.json`.
pub fn e14_recovery(scale: u32) -> Figure {
    let tail: usize = if scale == 0 { 200 } else { 1_000 };
    let sizes: &[usize] = if scale == 0 {
        &[1_000, 2_000, 4_000]
    } else {
        &[10_000, 40_000, 160_000]
    };
    let iters = if scale == 0 { 3 } else { 10 };
    let mut fig = Figure::new(
        "E14 — recovery time vs chronicle length (fixed WAL tail)",
        "pre-checkpoint appends",
        "recovery time (ns)",
    );
    let mut rec = Series::new("recovery (ns)");
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
        let mut last_replayed = 0u64;
        let ns = time_per_iter(iters, || {
            let db = ChronicleDb::open(tmp.path()).expect("reopen");
            last_replayed = db.stats().recovery_replayed_records;
            std::hint::black_box(&db);
        });
        rec.push(n as f64, ns);
        replayed.push(n as f64, last_replayed as f64);
    }
    fig.series.push(rec);
    fig.series.push(replayed);
    fig.note(format!(
        "WAL tail fixed at {tail} records; expected: recovery flat while the \
         pre-checkpoint chronicle grows {}x",
        sizes.last().expect("nonempty") / sizes.first().expect("nonempty")
    ));
    fig
}

// ===================================================================== E15

/// E15 — sharded maintenance scaling: durable append throughput and the
/// critical-path share of maintenance work as the catalog is
/// hash-partitioned. Theorem 4.1 keeps the shards coordination-free, so
/// the serial stage of a sharded run is its most-loaded shard; with the
/// balanced group set the critical path shrinks as 1/shards. Each shard
/// count is swept twice over the same total tuple stream: row-at-a-time
/// appends (one WAL record and one maintenance event per tuple) and
/// 32-row batches (one columnar WAL record and one vectorized maintenance
/// event per batch). Measurement core of the `e15_sharding` bench target,
/// exposed for `BENCH_E15.json`.
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
    // Per-shard channel capacity doubles as the group-commit window; a
    // small one keeps the single-shard engine fsync-stall-bound.
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
        "tuples/sec and critical-path work",
    );
    // One durable run: `batch` tuples per append, same total stream.
    // Returns wall seconds plus the finished engine for work inspection.
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
        let pipeline = ShardedPipeline::start(db, capacity);
        let handle = pipeline.handle();
        let start = std::time::Instant::now();
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
        (start.elapsed().as_secs_f64(), db)
    };
    let mut tp = Series::new("tuples/sec (row-at-a-time)");
    let mut tp_batch = Series::new(format!("tuples/sec (batched x{BATCH})"));
    let mut batch_speedup = Series::new("batch speedup (x)");
    let mut critical = Series::new("critical-path work (units)");
    let mut speedup = Series::new("model speedup (total/critical)");
    for &shards in shard_counts {
        let (row_secs, db) = run(shards, 1);
        let total = db.stats().work.total() as f64;
        let crit = (0..shards)
            .map(|i| db.shard(i).stats().work.total())
            .max()
            .unwrap_or(0) as f64;
        let (batch_secs, batch_db) = run(shards, BATCH);
        assert!(
            batch_db.stats().vectorized_views > 0,
            "batched E15 run never reached the vectorized kernels"
        );
        tp.push(shards as f64, ops as f64 / row_secs.max(1e-9));
        tp_batch.push(shards as f64, ops as f64 / batch_secs.max(1e-9));
        batch_speedup.push(shards as f64, row_secs / batch_secs.max(1e-9));
        critical.push(shards as f64, crit);
        speedup.push(shards as f64, total / crit.max(1.0));
    }
    fig.series.push(tp);
    fig.series.push(tp_batch);
    fig.series.push(batch_speedup);
    fig.series.push(critical);
    fig.series.push(speedup);
    fig.note(format!(
        "{GROUPS} groups x {ops_per_group} durable tuples, group-commit \
         window {capacity}, appended 1 and {BATCH} rows at a time; \
         expected: critical-path work ~1/shards of total (work counters \
         are deterministic), throughput rising with shards, and batched \
         ingest >=5x row-at-a-time at every shard count"
    ));
    fig
}

// ===================================================================== E16

/// E16 — follower catch-up: WAL-shipping throughput and replication lag.
/// A fresh follower pulls the leader's entire WAL through the [`Shipper`]
/// cursor machinery — the same code path the TCP server drives, minus the
/// socket — persists it byte-identically, and replays it through the
/// recovery path. Catch-up cost is linear in shipped WAL bytes (not in
/// how *old* the history is), lag after one uninterrupted catch-up is 0,
/// and the follower's views are byte-identical to the leader's.
/// Measurement core of the `e16_replication` bench target, exposed for
/// `BENCH_E16.json`.
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
        "records/sec, bytes, lag",
    );
    let mut tp = Series::new("catch-up (records applied/sec)");
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
        // pull; the timed region is exactly what a freshly started
        // `Replica` does between connect and lag 0.
        let follower_tmp = TempDir::new("e16-follower");
        let mut follower =
            FollowerDb::open_with(follower_tmp.path(), SHARDS, opts()).expect("open follower");
        let mut shipper = Shipper::new(&follower.applied_lsns(), DEFAULT_CHUNK);
        let mut bytes = 0u64;
        let start = std::time::Instant::now();
        loop {
            let caught_up = {
                let follower = &mut follower;
                let bytes = &mut bytes;
                shipper
                    .pump(&db, &mut |ev| match ev {
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
                        ShipEvent::Seal { shard, first_lsn } => {
                            follower.seal_segment(shard, first_lsn)
                        }
                    })
                    .expect("ship")
            };
            if caught_up {
                break;
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        for shard in 0..SHARDS {
            let durable = WalSource::last_durable_lsn(&db, shard).expect("leader lsn");
            follower.note_leader_durable(shard, durable);
        }
        let records: u64 = follower.applied_lsns().iter().sum();
        tp.push(n as f64, records as f64 / elapsed.max(1e-9));
        shipped.push(n as f64, bytes as f64);
        lag.push(n as f64, follower.replication_lag().unwrap_or(0) as f64);
        all_identical &= follower.db().snapshot_views() == db.snapshot_views();
    }
    fig.series.push(tp);
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

// ===================================================================== E17

/// E17 — batch-size sweep of the vectorized delta kernels: per-tuple
/// maintenance cost as the append batch grows, vectorized (columnar
/// chunks through the σ/Π/γ kernels) vs forced-scalar (the per-tuple
/// interpreter), over one in-memory engine with a select-heavy and a
/// grouped view. Both modes produce byte-identical state — the
/// differential oracle suite pins that — so this figure isolates the
/// constant-factor win of transposing once per batch instead of boxing
/// every tuple through intermediate Z-sets. Exposed for
/// `BENCH_E17.json`.
pub fn e17_batch_kernels(scale: u32) -> Figure {
    let total: usize = if scale == 0 { 4_096 } else { 65_536 };
    let batch_sizes: &[usize] = if scale == 0 {
        &[1, 16, 256]
    } else {
        &[1, 4, 16, 64, 256]
    };
    let run = |batch: usize, mode: BatchMode| {
        let mut db = ChronicleDb::new();
        db.execute("CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT)")
            .expect("ddl");
        db.execute(
            "CREATE VIEW long_calls AS SELECT caller, COUNT(*) AS n, SUM(minutes) AS m \
             FROM calls WHERE minutes > 4.5 GROUP BY caller",
        )
        .expect("ddl");
        db.execute("CREATE VIEW callers AS SELECT caller FROM calls")
            .expect("ddl");
        db.set_batch_mode(mode);
        let start = std::time::Instant::now();
        for b in 0..total / batch {
            let rows: Vec<Vec<Value>> = (0..batch)
                .map(|j| {
                    let i = b * batch + j;
                    vec![Value::Int((i % 64) as i64), Value::Float(i as f64 % 9.0)]
                })
                .collect();
            db.append("calls", Chronon(b as i64 + 1), &rows)
                .expect("append");
        }
        let secs = start.elapsed().as_secs_f64();
        // Single-row appends ride the interpreter by design (the chunk
        // transpose only pays for itself from two rows up), so the kernel
        // counter is only required to move once batches actually batch.
        if mode == BatchMode::Vectorized && batch >= 2 {
            assert!(
                db.stats().vectorized_views > 0,
                "E17 vectorized run never reached the kernels"
            );
        }
        secs
    };
    let mut fig = Figure::new(
        "E17 — vectorized kernels vs scalar interpreter (batch-size sweep)",
        "rows per append batch",
        "tuples/sec (in-memory maintenance)",
    );
    let mut vec_tp = Series::new("tuples/sec (vectorized)");
    let mut sca_tp = Series::new("tuples/sec (scalar)");
    let mut speedup = Series::new("kernel speedup (x)");
    for &batch in batch_sizes {
        let sca = run(batch, BatchMode::Scalar);
        let vec = run(batch, BatchMode::Vectorized);
        vec_tp.push(batch as f64, total as f64 / vec.max(1e-9));
        sca_tp.push(batch as f64, total as f64 / sca.max(1e-9));
        speedup.push(batch as f64, sca / vec.max(1e-9));
    }
    fig.series.push(vec_tp);
    fig.series.push(sca_tp);
    fig.series.push(speedup);
    fig.note(format!(
        "{total} tuples through two views (sigma+gamma, pi), in-memory; \
         expected: modes coincide at batch 1 (single-row events ride the \
         interpreter by design) and the kernels pull ahead as batches grow"
    ));
    fig
}

// ===================================================================== E18

/// One placement mode's outcome in the E18 sweep.
struct SkewRun {
    /// Per-shard maintenance work charged during the measured phase.
    deltas: Vec<u64>,
    /// Wall seconds the rebalance pass held the engine (0 for static).
    pause_secs: f64,
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
/// per-shard split moves. Work counters are deterministic, so the gate
/// (`crates/bench/tests/e18_gate.rs`) asserts on them rather than wall
/// time. Exposed for `BENCH_E18.json`.
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
        let (pause_secs, moves) = if heavy_light {
            let start = std::time::Instant::now();
            let plan = db.rebalance().expect("rebalance");
            (start.elapsed().as_secs_f64(), plan.len())
        } else {
            (0.0, 0)
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
            pause_secs,
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
    let mut pause_s = Series::new("rebalance pause (ms)");
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
        pause_s.push(theta, hl.pause_secs * 1e3);
    }
    fig.series = vec![
        crit_static,
        crit_hl,
        ratio,
        total_static,
        total_hl,
        moves_s,
        pause_s,
    ];
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

/// E19 — leader failover: fenced promotion downtime and the retry storm.
/// A durable leader executes stamped statements across sessioned clients
/// while a semi-synchronous follower mirrors its WAL; then the leader
/// dies. Three quantities: *promotion downtime* — the
/// [`FollowerDb::promote`] recovery that turns the follower into a
/// serving leader under a new fenced term; the *retry storm* a failover
/// triggers — every
/// client re-sends its newest `(session, seq)` stamp and all of them must
/// be answered from the dedupe cache without re-applying; and *fresh*
/// stamped throughput on the promoted lineage. A stale-term probe against
/// a follower of the new lineage must be refused with the typed fencing
/// error after every promotion. Exposed for `BENCH_E19.json`.
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
        "ms, stmts/sec",
    );
    let mut downtime = Series::new("promotion downtime (ms)");
    let mut retry_tp = Series::new("retry storm, answered from the dedupe cache (stmts/sec)");
    let mut fresh_tp = Series::new("fresh stamped appends after failover (stmts/sec)");
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
        let mut sn = vec![0u64; SHARDS];
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

        // The leader dies; the follower is promoted. The timed region is
        // the full fenced takeover: drop the ingest plumbing, recover a
        // serving `ShardedDb` from the local files, begin the next term.
        drop(db);
        let start = std::time::Instant::now();
        let mut promoted = follower.promote().expect("promote");
        downtime.push(n as f64, start.elapsed().as_secs_f64() * 1e3);

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
        let start = std::time::Instant::now();
        for _ in 0..retries_per_session {
            for session in 1..=SESSIONS {
                let (seq, sql) = &last[session as usize - 1];
                promoted
                    .execute_stamped(sql, session, *seq)
                    .expect("retry answered from the dedupe cache");
            }
        }
        let storm = retries_per_session as u64 * SESSIONS;
        retry_tp.push(
            n as f64,
            storm as f64 / start.elapsed().as_secs_f64().max(1e-9),
        );
        all_cached &= promoted.snapshot_views() == before
            && promoted.stats().session_replays - replays_before == storm;

        // Fresh stamped work on the promoted lineage.
        let start = std::time::Instant::now();
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
        fresh_tp.push(
            n as f64,
            (fresh_per_session as u64 * SESSIONS) as f64 / start.elapsed().as_secs_f64().max(1e-9),
        );
    }
    fig.series.push(downtime);
    fig.series.push(retry_tp);
    fig.series.push(fresh_tp);
    fig.note(format!(
        "{SHARDS} shards, {SESSIONS} sessions, 64 KiB segments, durable \
         leader and follower; promotion downtime is the full recover-and-\
         begin-term takeover; expected: every retry answered from the \
         dedupe cache with zero state change: {all_cached}; stale-term \
         probe fenced after every promotion: {all_fenced}"
    ));
    fig
}

/// Pump the [`Shipper`] until the follower has every leader WAL byte,
/// then record the leader's durable frontier so replication lag reads 0.
fn ship_until_caught_up(leader: &ShardedDb, follower: &mut FollowerDb) {
    let mut shipper = Shipper::new(&follower.applied_lsns(), DEFAULT_CHUNK);
    loop {
        let caught_up = {
            let follower = &mut *follower;
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
                    } => follower.ingest(shard, offset, &chunk).map(|_| ()),
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
        let row = fig.series("tuples/sec (row-at-a-time)").expect("series");
        let batch = fig.series("tuples/sec (batched x32)").expect("series");
        let speedup = fig.series("batch speedup (x)").expect("series");
        assert_eq!(row.points.len(), batch.points.len());
        assert_eq!(row.points.len(), speedup.points.len());
        // Fewer WAL records, fsyncs, and maintenance events per tuple:
        // batched ingest must never be slower than row-at-a-time.
        assert!(
            speedup.points.iter().all(|&(_, y)| y > 1.0),
            "batched ingest slower than row-at-a-time: {:?}",
            speedup.points
        );
    }

    #[test]
    fn e17_sweeps_both_kernel_modes() {
        let fig = e17_batch_kernels(0);
        for name in [
            "tuples/sec (vectorized)",
            "tuples/sec (scalar)",
            "kernel speedup (x)",
        ] {
            let s = fig.series(name).expect("series");
            assert_eq!(s.points.len(), 3, "scale-0 sweep covers 3 batch sizes");
            assert!(s.points.iter().all(|&(_, y)| y > 0.0));
        }
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
        let downtime = fig.series("promotion downtime (ms)").expect("series");
        assert!(
            downtime.points.iter().all(|&(_, y)| y > 0.0),
            "promotion must take measurable time, got {:?}",
            downtime.points
        );
        let storm = fig
            .series("retry storm, answered from the dedupe cache (stmts/sec)")
            .expect("series");
        assert!(
            storm.points.iter().all(|&(_, y)| y > 0.0),
            "the retry storm must complete, got {:?}",
            storm.points
        );
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
}
