//! Concurrency: the append pipeline serializes maintenance correctly under
//! many producers, preserving sequence-number monotonicity and exact view
//! contents.

use std::collections::HashMap;

use chronicle::db::pipeline::ShardedPipeline;
use chronicle::prelude::*;
use chronicle::workload::AtmGen;

fn banking() -> ChronicleDb {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT) RETAIN ALL")
        .unwrap();
    db.execute(
        "CREATE VIEW balances AS SELECT acct, SUM(amount) AS b, COUNT(*) AS n \
         FROM atm GROUP BY acct",
    )
    .unwrap();
    db
}

#[test]
fn eight_producers_exact_balances() {
    let pipeline = ShardedPipeline::start(banking().into(), 256);
    let mut joins = Vec::new();
    for p in 0..8u64 {
        let h = pipeline.handle();
        joins.push(std::thread::spawn(move || {
            let mut gen = AtmGen::new(p, 16);
            let mut local: HashMap<i64, (f64, i64)> = HashMap::new();
            for i in 0..200usize {
                let row = gen.next_row();
                let acct = row[0].as_int().unwrap();
                let amount = row[1].as_float().unwrap();
                let e = local.entry(acct).or_insert((0.0, 0));
                e.0 += amount;
                e.1 += 1;
                // A fixed chronon: wall-clock ties across ATMs are legal;
                // monotonicity is per group, and equal chronons satisfy it.
                let _ = i;
                h.append(
                    "atm",
                    Chronon(0),
                    vec![vec![row[0].clone(), row[1].clone()]],
                )
                .unwrap();
            }
            local
        }));
    }
    // Merge every producer's local expectations.
    let mut expected: HashMap<i64, (f64, i64)> = HashMap::new();
    for j in joins {
        for (acct, (amt, n)) in j.join().unwrap() {
            let e = expected.entry(acct).or_insert((0.0, 0));
            e.0 += amt;
            e.1 += n;
        }
    }
    let db = pipeline.shutdown();
    assert_eq!(db.stats().appends, 1_600);
    for (acct, (amt, n)) in expected {
        let row = db
            .query_view_key("balances", &[Value::Int(acct)])
            .unwrap()
            .unwrap_or_else(|| panic!("account {acct} missing"));
        assert!(
            (row.get(1).as_float().unwrap() - amt).abs() < 1e-6,
            "balance mismatch for {acct}"
        );
        assert_eq!(row.get(2).as_int().unwrap(), n, "count mismatch for {acct}");
    }
    // Sequence numbers were allocated without gaps or duplicates.
    let catalog = db.shard(0).catalog();
    let atm = catalog.chronicle_id("atm").unwrap();
    let mut seqs: Vec<u64> = catalog
        .chronicle(atm)
        .scan_all()
        .unwrap()
        .map(|t| t.seq_at(0).unwrap().0)
        .collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (1..=1_600).collect::<Vec<u64>>());
}

#[test]
fn queries_during_ingest_see_consistent_prefixes() {
    // A reader polling view rows mid-ingest must always see a sum and count
    // that correspond to SOME prefix of the append sequence: with all
    // deposits of +1, balance == txn count at every instant, and both are
    // non-decreasing over time.
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT)")
        .unwrap();
    db.execute(
        "CREATE VIEW balances AS SELECT acct, SUM(amount) AS b, COUNT(*) AS n \
         FROM atm GROUP BY acct",
    )
    .unwrap();
    let pipeline = ShardedPipeline::start(db.into(), 64);
    let writer = {
        let h = pipeline.handle();
        std::thread::spawn(move || {
            for i in 0..500usize {
                h.append(
                    "atm",
                    Chronon(i as i64),
                    vec![vec![Value::Int(1), Value::Float(1.0)]],
                )
                .unwrap();
            }
        })
    };
    let reader = {
        let h = pipeline.handle();
        std::thread::spawn(move || {
            let mut last_n = 0i64;
            for _ in 0..100 {
                if let Some(row) = h.query("balances", vec![Value::Int(1)]).unwrap() {
                    let b = row.get(1).as_float().unwrap();
                    let n = row.get(2).as_int().unwrap();
                    assert_eq!(b, n as f64, "sum and count must move together");
                    assert!(n >= last_n, "view went backwards");
                    last_n = n;
                }
                std::thread::yield_now();
            }
        })
    };
    writer.join().unwrap();
    reader.join().unwrap();
    let db = pipeline.shutdown();
    let row = db
        .query_view_key("balances", &[Value::Int(1)])
        .unwrap()
        .unwrap();
    assert_eq!(row.get(1).as_float().unwrap(), 500.0);
    assert_eq!(row.get(2).as_int().unwrap(), 500);
}

#[test]
fn pipeline_backpressure_does_not_deadlock() {
    // Capacity 1 forces producers to block on the channel; everything still
    // drains.
    let pipeline = ShardedPipeline::start(banking().into(), 1);
    let mut joins = Vec::new();
    for _ in 0..4 {
        let h = pipeline.handle();
        joins.push(std::thread::spawn(move || {
            for _ in 0..50usize {
                h.append_nowait(
                    "atm",
                    Chronon(0),
                    vec![vec![Value::Int(1), Value::Float(1.0)]],
                )
                .unwrap();
            }
        }));
    }
    for j in joins {
        j.join().unwrap();
    }
    let db = pipeline.shutdown();
    assert_eq!(db.stats().appends, 200);
}

#[test]
fn errors_propagate_to_the_right_producer() {
    let pipeline = ShardedPipeline::start(banking().into(), 16);
    let good = pipeline.handle();
    let bad = pipeline.handle();
    let g = std::thread::spawn(move || {
        for i in 0..50usize {
            good.append(
                "atm",
                Chronon(i as i64),
                vec![vec![Value::Int(1), Value::Float(1.0)]],
            )
            .unwrap();
        }
    });
    let b = std::thread::spawn(move || {
        let mut errs = 0;
        for _ in 0..50usize {
            if bad
                .append(
                    "ghost",
                    Chronon(0),
                    vec![vec![Value::Int(1), Value::Float(1.0)]],
                )
                .is_err()
            {
                errs += 1;
            }
        }
        errs
    });
    g.join().unwrap();
    assert_eq!(b.join().unwrap(), 50, "every bad append got its error");
    let db = pipeline.shutdown();
    assert_eq!(db.stats().appends, 50, "only good appends counted");
}
