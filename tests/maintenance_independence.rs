//! Theorem 4.1 as a deterministic regression test against the public
//! database API: the maintenance work charged for an append of `u` tuples
//! depends only on `u` (and the view set), never on how many tuples the
//! chronicle has already accumulated. Wall time is too noisy to assert
//! this; the database's own work counters ([`chronicle::db::ChronicleDb::stats`])
//! are exact, so the comparison is equality, not a tolerance.

use chronicle::algebra::WorkCounter;
use chronicle::db::pipeline::ShardedPipeline;
use chronicle::db::{ChronicleDb, ShardedDb};
use chronicle::prelude::*;
use chronicle_testkit::prop::{floats, ints, pair, vec_of};
use chronicle_testkit::{prop_assert_eq, prop_test, Rng, SeedableRng, SmallRng, Zipf};

fn build_db() -> ChronicleDb {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT)")
        .unwrap();
    db.execute("CREATE RELATION rates (acct INT, rate FLOAT, PRIMARY KEY (acct))")
        .unwrap();
    for a in 0..8i64 {
        db.execute(&format!("INSERT INTO rates VALUES ({a}, 0.5)"))
            .unwrap();
    }
    // One CA1 view (constant work per tuple) and one CAkey view (index
    // probes, O(log |R|) per tuple) — both classes must be |C|-independent.
    db.execute(
        "CREATE VIEW spend AS SELECT caller, SUM(minutes) AS total \
         FROM calls GROUP BY caller",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW billed AS SELECT caller, SUM(rate) AS r \
         FROM calls JOIN rates ON caller = acct GROUP BY caller",
    )
    .unwrap();
    db
}

/// Append one batch of `u` rows and return exactly the maintenance work it
/// was charged.
fn work_of_append(db: &mut ChronicleDb, u: usize, t: &mut i64) -> WorkCounter {
    let before = db.stats().work;
    *t += 1;
    let rows: Vec<Vec<Value>> = (0..u)
        .map(|i| vec![Value::Int((i % 8) as i64), Value::Float(1.5)])
        .collect();
    db.append("calls", Chronon(*t), &rows).unwrap();
    let after = db.stats().work;
    WorkCounter {
        tuples_out: after.tuples_out - before.tuples_out,
        tuples_in: after.tuples_in - before.tuples_in,
        index_probes: after.index_probes - before.index_probes,
        rel_tuples_scanned: after.rel_tuples_scanned - before.rel_tuples_scanned,
    }
}

/// Sweep u = 1..=64, returning the work counter charged for each batch size.
fn sweep(db: &mut ChronicleDb, t: &mut i64) -> Vec<WorkCounter> {
    (1..=64).map(|u| work_of_append(db, u, t)).collect()
}

#[test]
fn per_append_work_is_independent_of_chronicle_size() {
    let mut db = build_db();
    let mut t = 0i64;

    // Epoch 1: the chronicle is nearly empty.
    let early = sweep(&mut db, &mut t);

    // Grow |C| by two orders of magnitude beyond everything the sweep
    // appended (the group keys recur, so view sizes stay fixed while the
    // chronicle's history grows).
    for _ in 0..2_000 {
        t += 1;
        db.append(
            "calls",
            Chronon(t),
            &[vec![Value::Int(3), Value::Float(0.5)]],
        )
        .unwrap();
    }

    // Epoch 2: same sweep against the much larger chronicle.
    let late = sweep(&mut db, &mut t);

    // Theorem 4.1: identical work, counter by counter, for every u.
    for (u, (e, l)) in early.iter().zip(&late).enumerate() {
        assert_eq!(
            e,
            l,
            "maintenance work for a {}-tuple append changed as |C| grew",
            u + 1
        );
    }

    // And the chronicle really did grow between the epochs.
    assert_eq!(db.stats().appends, 64 + 2_000 + 64);
    assert!(db.stats().tuples_appended > 2_000);
}

#[test]
fn per_append_work_is_linear_in_batch_size() {
    let mut db = build_db();
    let mut t = 0i64;
    let works = sweep(&mut db, &mut t);

    // Batch rows cycle through 8 group keys, so work has a per-distinct-
    // group component that saturates at u = 8; past that point Work(u)
    // must be *exactly* linear: Work(u+1) - Work(u) is one fixed per-tuple
    // cost. Any |C|- or history-dependent term would break the
    // progression.
    let base = works[7].total(); // u = 8
    let slope = works[8].total() - base; // u = 9 minus u = 8
    assert!(slope > 0, "appending more tuples must cost more work");
    for (i, w) in works.iter().enumerate().skip(7) {
        assert_eq!(
            w.total(),
            base + slope * (i as u64 - 7),
            "work for u = {} off the linear progression",
            i + 1
        );
    }
    // Below saturation the curve is still monotone.
    for pair in works[..8].windows(2) {
        assert!(pair[0].total() < pair[1].total());
    }
}

/// DDL with relation-backed views: the retraction-bearing counterpart of
/// [`build_db`]. Chronicle views and relation views coexist; relation
/// DML drives signed Z-set deltas through the relation views only.
fn build_retraction_db() -> ChronicleDb {
    let mut db = build_db();
    db.execute("CREATE RELATION accts (acct INT, region INT, amount FLOAT, PRIMARY KEY (acct))")
        .unwrap();
    db.execute(
        "CREATE VIEW by_region AS SELECT region, SUM(amount) AS s, COUNT(*) AS n \
         FROM accts GROUP BY region",
    )
    .unwrap();
    db.execute("CREATE VIEW region_set AS SELECT region FROM accts")
        .unwrap();
    db
}

/// Run `f` and return exactly the maintenance work it was charged.
fn work_of(db: &mut ChronicleDb, f: impl FnOnce(&mut ChronicleDb)) -> WorkCounter {
    let before = db.stats().work;
    f(db);
    let after = db.stats().work;
    WorkCounter {
        tuples_out: after.tuples_out - before.tuples_out,
        tuples_in: after.tuples_in - before.tuples_in,
        index_probes: after.index_probes - before.index_probes,
        rel_tuples_scanned: after.rel_tuples_scanned - before.rel_tuples_scanned,
    }
}

/// One retraction-bearing DML round over keys 0..8: insert, update
/// (`−old +new`), and delete every key, recording the work of each
/// statement. The relation ends the round exactly as it started (empty),
/// so rounds are directly comparable.
fn retraction_round(db: &mut ChronicleDb) -> Vec<WorkCounter> {
    let mut works = Vec::new();
    for k in 0..8i64 {
        works.push(work_of(db, |db| {
            db.execute(&format!("INSERT INTO accts VALUES ({k}, {}, 2.5)", k % 3))
                .unwrap();
        }));
    }
    for k in 0..8i64 {
        works.push(work_of(db, |db| {
            db.execute(&format!(
                "UPDATE accts SET region = {}, amount = 4.0 WHERE acct = {k}",
                (k + 1) % 3
            ))
            .unwrap();
        }));
    }
    for k in 0..8i64 {
        works.push(work_of(db, |db| {
            db.execute(&format!("DELETE FROM accts WHERE acct = {k}"))
                .unwrap();
        }));
    }
    works
}

#[test]
fn retraction_work_is_independent_of_chronicle_size() {
    let mut db = build_retraction_db();
    let mut t = 0i64;

    // Epoch 1: the chronicle is nearly empty.
    let early = retraction_round(&mut db);

    // Grow |C| by three orders of magnitude. Relation views are not
    // routed appends, so this must not change what relation DML costs —
    // Theorem 4.1's |C|-independence extends to signed deltas.
    for _ in 0..2_000 {
        t += 1;
        db.append(
            "calls",
            Chronon(t),
            &[vec![Value::Int(3), Value::Float(0.5)]],
        )
        .unwrap();
    }

    // Epoch 2: the identical DML round against the much larger chronicle.
    let late = retraction_round(&mut db);
    for (i, (e, l)) in early.iter().zip(&late).enumerate() {
        assert_eq!(
            e, l,
            "retraction-bearing statement {i} was charged different work after |C| grew"
        );
    }
    assert_eq!(db.stats().relation_changes, 2 * 24);
}

#[test]
fn insert_and_delete_charge_identical_work() {
    // A `+1` and its `−1` are the same delta up to sign, and work is
    // charged per |weight| — so inserting a tuple and deleting it must
    // produce counter-for-counter identical work. An update is the
    // consolidated `−old +new` pair: exactly twice the tuple traffic when
    // the group key moves (two groups probed, two signed tuples folded).
    let mut db = build_retraction_db();
    let ins = work_of(&mut db, |db| {
        db.execute("INSERT INTO accts VALUES (1, 0, 2.5)").unwrap();
    });
    let upd = work_of(&mut db, |db| {
        db.execute("UPDATE accts SET region = 1, amount = 4.0 WHERE acct = 1")
            .unwrap();
    });
    let del = work_of(&mut db, |db| {
        db.execute("DELETE FROM accts WHERE acct = 1").unwrap();
    });
    assert_eq!(ins, del, "+1 and −1 deltas must cost the same work");
    assert_eq!(
        upd.tuples_in,
        ins.tuples_in + del.tuples_in,
        "an update is one −old +new pair"
    );
    assert!(ins.tuples_in > 0, "the delta actually reached the views");
}

#[test]
fn retraction_work_does_not_grow_with_view_history() {
    // The dual of |C|-independence: per-change work must not grow with
    // how many deltas the *view* has already absorbed, either. Drive many
    // rounds and compare the first against the last.
    let mut db = build_retraction_db();
    let first = retraction_round(&mut db);
    for _ in 0..50 {
        retraction_round(&mut db);
    }
    let last = retraction_round(&mut db);
    assert_eq!(first, last, "work drifted as the view absorbed deltas");
}

/// The work-shape gate for heavy-light placement: moving a group between
/// shards (or letting the online classifier rebalance the whole table)
/// must be *execution-only*. Theorem 4.1 makes the group a closed
/// maintenance unit, so the maintenance work charged for a statement
/// cannot depend on which shard hosts its group. Two sharded engines run
/// a byte-identical Zipf-skewed append schedule; one keeps the static
/// FNV hash placement, the other is churned with explicit moves and
/// online rebalances between statements. The per-statement aggregate
/// work deltas (summed across shards) must match counter for counter.
#[test]
fn placement_is_execution_only_for_maintenance_work() {
    let shards = shard_count();
    let mut stay = ShardedDb::new(shards).unwrap();
    let mut churn = ShardedDb::new(shards).unwrap();
    for stmt in sharded_prop_ddl() {
        stay.execute(&stmt).unwrap();
        churn.execute(&stmt).unwrap();
    }

    let work_of_stmt = |db: &mut ShardedDb, sql: &str| -> WorkCounter {
        let before = db.stats().work;
        db.execute(sql).unwrap();
        let after = db.stats().work;
        WorkCounter {
            tuples_out: after.tuples_out - before.tuples_out,
            tuples_in: after.tuples_in - before.tuples_in,
            index_probes: after.index_probes - before.index_probes,
            rel_tuples_scanned: after.rel_tuples_scanned - before.rel_tuples_scanned,
        }
    };

    let mut rng = SmallRng::seed_from_u64(0x9a7e_5eed);
    let zipf = Zipf::new(GROUPS as usize, 1.1);
    let mut moves = 0usize;
    for i in 0..240i64 {
        let g = zipf.sample(&mut rng);
        let acct = rng.gen_range(0..6u64);
        let amount = (rng.gen_range(0..20u64) as f64) / 2.0;
        let sql = format!("APPEND INTO c{g} AT {} VALUES ({acct}, {amount:.1})", i + 1);
        let w_stay = work_of_stmt(&mut stay, &sql);
        let w_churn = work_of_stmt(&mut churn, &sql);
        assert_eq!(
            w_stay, w_churn,
            "statement {i} ({sql}) was charged different maintenance work \
             under heavy-light placement than under static hashing"
        );

        // Churn placement between statements: explicit moves on a cycle
        // plus periodic online rebalances driven by the live Zipf rates.
        if i % 24 == 11 {
            churn
                .move_group(&format!("g{}", g % GROUPS as usize), (g + 1) % shards)
                .unwrap();
            moves += 1;
        }
        if i % 60 == 35 {
            moves += churn.rebalance().unwrap().len();
        }
    }
    assert!(
        moves >= 10,
        "the churned engine must actually relocate groups (got {moves})"
    );
    // Placement churn is also invisible to logical state.
    let mut expect = stay.snapshot_views();
    expect.sort();
    let mut got = churn.snapshot_views();
    got.sort();
    assert_eq!(got, expect, "placement churn leaked into view state");
}

/// Number of chronicle groups in the sharded-equivalence property test.
const GROUPS: i64 = 4;

/// Shard count for the sharded-equivalence property test; `SHARDS=n`
/// overrides (verify.sh runs the suite with `SHARDS=4`).
fn shard_count() -> usize {
    std::env::var("SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3)
}

/// DDL shared by the sharded and single-threaded runs: `GROUPS` chronicle
/// groups, one chronicle each, and two views per group (an unguarded SUM
/// and a guarded one, so maintenance exercises both selection paths).
fn sharded_prop_ddl() -> Vec<String> {
    let mut ddl = Vec::new();
    for g in 0..GROUPS {
        ddl.push(format!("CREATE GROUP g{g}"));
        ddl.push(format!(
            "CREATE CHRONICLE c{g} (sn SEQ, acct INT, amount FLOAT) IN GROUP g{g}"
        ));
        ddl.push(format!(
            "CREATE VIEW v{g} AS SELECT acct, SUM(amount) AS total FROM c{g} GROUP BY acct"
        ));
        ddl.push(format!(
            "CREATE VIEW w{g} AS SELECT acct, COUNT(*) AS n FROM c{g} \
             WHERE amount > 5.0 GROUP BY acct"
        ));
    }
    ddl
}

prop_test! {
    /// Theorem 4.1, concurrently: hash-sharding maintenance by chronicle
    /// group and running every shard on its own thread must produce view
    /// states identical to the single-threaded serial engine. Each group's
    /// appends are issued by a dedicated producer thread (per-group order
    /// preserved, cross-group order deliberately scrambled by the
    /// scheduler), so any hidden cross-group coupling in the sharded
    /// engine shows up as a snapshot mismatch.
    fn sharded_maintenance_matches_single_threaded(cases = 8, seed = 0x5A4D;
        ops in vec_of(
            pair(ints(0..GROUPS), pair(ints(0..6i64), floats(0.5..9.5))),
            20..120,
        )
    ) {
        // Per-op chronons: the global op index keeps every group's
        // subsequence strictly monotone, and both runs stamp identically.
        let ops: Vec<(i64, i64, f64, i64)> = ops
            .iter()
            .enumerate()
            .map(|(i, (g, (acct, amount)))| (*g, *acct, *amount, i as i64 + 1))
            .collect();

        // Single-threaded reference: one serial engine, generated order.
        let mut reference = ChronicleDb::new();
        for stmt in sharded_prop_ddl() {
            reference.execute(&stmt).unwrap();
        }
        for (g, acct, amount, at) in &ops {
            reference
                .append(
                    &format!("c{g}"),
                    Chronon(*at),
                    &[vec![Value::Int(*acct), Value::Float(*amount)]],
                )
                .unwrap();
        }

        let mut expect = reference.snapshot_views();
        expect.sort();

        // Sharded runs: same DDL, appends fanned out by one producer
        // thread per group through the sharded pipeline — against the
        // hash-partitioned engine, and against "one shard via `From`",
        // the single engine wrapped (the wrap must be invisible).
        let partitioned = ShardedDb::new(shard_count()).unwrap();
        let wrapped = ShardedDb::from(ChronicleDb::new());
        for mut sharded in [partitioned, wrapped] {
            for stmt in sharded_prop_ddl() {
                sharded.execute(&stmt).unwrap();
            }
            let pipeline = ShardedPipeline::start(sharded, 8);
            let handle = pipeline.handle();
            std::thread::scope(|scope| {
                for g in 0..GROUPS {
                    let handle = handle.clone();
                    let ops = &ops;
                    scope.spawn(move || {
                        for (og, acct, amount, at) in ops.iter().filter(|(og, ..)| *og == g) {
                            handle
                                .append(
                                    &format!("c{og}"),
                                    Chronon(*at),
                                    vec![vec![Value::Int(*acct), Value::Float(*amount)]],
                                )
                                .unwrap();
                        }
                    });
                }
            });
            let sharded = pipeline.shutdown();

            prop_assert_eq!(sharded.snapshot_views(), expect.clone());
            let (got, want) = (sharded.stats(), reference.stats());
            prop_assert_eq!(got.work, want.work);
            prop_assert_eq!(got.appends, want.appends);
            prop_assert_eq!(got.tuples_appended, want.tuples_appended);
        }
    }
}
