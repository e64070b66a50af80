//! Restart persistence: persistent views are the only durable state of a
//! chronicle system (the chronicle itself is not stored). Most of this
//! suite exercises the durability subsystem — `ChronicleDb::open` at a
//! path, crash (drop without checkpoint), reopen, and byte-identical view
//! state — plus one regression case for the legacy manual
//! snapshot/restore path.

use chronicle::prelude::*;
use chronicle::workload::AtmGen;
use chronicle_testkit::TempDir;

const DDL: &[&str] = &[
    "CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT)",
    "CREATE VIEW balances AS SELECT acct, SUM(amount) AS b, COUNT(*) AS n FROM atm GROUP BY acct",
    "CREATE VIEW extremes AS SELECT acct, MIN(amount) AS lo, MAX(amount) AS hi, AVG(amount) AS mean FROM atm GROUP BY acct",
    "CREATE VIEW seen_accts AS SELECT acct FROM atm",
];

fn apply_ddl(db: &mut ChronicleDb) {
    for stmt in DDL {
        db.execute(stmt).unwrap();
    }
}

fn fresh() -> ChronicleDb {
    let mut db = ChronicleDb::new();
    apply_ddl(&mut db);
    db
}

/// Drive `n` deterministic appends into both databases.
fn ingest(dbs: &mut [&mut ChronicleDb], seed: u64, n: usize, base_chronon: i64) {
    let mut gen = AtmGen::new(seed, 50);
    for i in 0..n {
        let row = gen.next_row();
        let vals = vec![row[0].clone(), row[1].clone()];
        for db in dbs.iter_mut() {
            db.append(
                "atm",
                Chronon(base_chronon + i as i64),
                std::slice::from_ref(&vals),
            )
            .unwrap();
        }
    }
}

#[test]
fn durable_crash_reopen_without_checkpoint() {
    let tmp = TempDir::new("chronicle-restart");
    let mut oracle = fresh();
    {
        let mut db = ChronicleDb::open(tmp.path()).unwrap();
        apply_ddl(&mut db);
        ingest(&mut [&mut db, &mut oracle], 11, 500, 0);
        // No checkpoint, no clean shutdown: `db` is dropped here — the
        // crash. Everything acknowledged is already in the WAL.
    }
    let db = ChronicleDb::open(tmp.path()).unwrap();
    assert_eq!(db.stats().recovery_checkpoint_lsn, None);
    assert!(db.stats().recovery_replayed_records >= 500);
    // Byte-identical view state versus the never-crashed oracle.
    assert_eq!(db.snapshot_views(), oracle.snapshot_views());
    for v in ["balances", "extremes", "seen_accts"] {
        assert_eq!(db.query_view(v).unwrap(), oracle.query_view(v).unwrap());
    }
}

#[test]
fn checkpoint_then_crash_replays_only_tail() {
    let tmp = TempDir::new("chronicle-restart");
    let mut oracle = fresh();
    {
        let mut db = ChronicleDb::open(tmp.path()).unwrap();
        apply_ddl(&mut db);
        ingest(&mut [&mut db, &mut oracle], 7, 1_000, 0);
        let lsn = db.checkpoint().unwrap();
        assert!(lsn > 0);
        assert_eq!(db.stats().checkpoints, 1);
        ingest(&mut [&mut db, &mut oracle], 8, 50, 1_000);
    }
    let db = ChronicleDb::open(tmp.path()).unwrap();
    assert!(db.stats().recovery_checkpoint_lsn.is_some());
    // Only the 50 post-checkpoint appends replay, not the 1000 before.
    assert_eq!(db.stats().recovery_replayed_records, 50);
    assert_eq!(db.snapshot_views(), oracle.snapshot_views());
}

#[test]
fn reopened_db_continues_identically() {
    let tmp = TempDir::new("chronicle-restart");
    let mut oracle = fresh();
    {
        let mut db = ChronicleDb::open(tmp.path()).unwrap();
        apply_ddl(&mut db);
        ingest(&mut [&mut db, &mut oracle], 3, 400, 0);
        db.checkpoint().unwrap();
        ingest(&mut [&mut db, &mut oracle], 4, 30, 400);
    }
    // Reopen and keep ingesting the same suffix on both sides: sequence
    // numbers, watermarks and views must all continue in lock-step.
    let mut db = ChronicleDb::open(tmp.path()).unwrap();
    ingest(&mut [&mut db, &mut oracle], 5, 200, 430);
    assert_eq!(db.snapshot_views(), oracle.snapshot_views());
    let c = db
        .catalog()
        .chronicle(db.catalog().chronicle_id("atm").unwrap());
    let oc = oracle
        .catalog()
        .chronicle(oracle.catalog().chronicle_id("atm").unwrap());
    assert_eq!(c.total_appended(), oc.total_appended());
    assert_eq!(c.last_seq(), oc.last_seq());
}

#[test]
fn relations_and_periodic_views_survive_reopen() {
    let tmp = TempDir::new("chronicle-restart");
    let stmts = [
        "CREATE CHRONICLE calls (sn SEQ, acct INT, minutes FLOAT)",
        "CREATE RELATION customers (acct INT, name STRING, PRIMARY KEY (acct))",
        "CREATE PERIODIC VIEW weekly AS SELECT acct, SUM(minutes) AS m FROM calls GROUP BY acct \
         OVER CALENDAR EVERY 7",
        "INSERT INTO customers VALUES (1, 'alice'), (2, 'bob')",
        "UPDATE customers SET name = 'alicia' WHERE acct = 1",
        "DELETE FROM customers WHERE acct = 2",
        "APPEND INTO calls AT 3 VALUES (1, 10.0)",
        "APPEND INTO calls AT 9 VALUES (1, 2.5)",
    ];
    {
        let mut db = ChronicleDb::open(tmp.path()).unwrap();
        for s in &stmts {
            db.execute(s).unwrap();
        }
        db.checkpoint().unwrap();
        db.execute("APPEND INTO calls AT 16 VALUES (1, 4.0)")
            .unwrap();
    }
    let mut oracle = ChronicleDb::new();
    for s in &stmts {
        oracle.execute(s).unwrap();
    }
    oracle
        .execute("APPEND INTO calls AT 16 VALUES (1, 4.0)")
        .unwrap();

    let db = ChronicleDb::open(tmp.path()).unwrap();
    // Relation contents (including the temporal log) survive.
    let rid = db.catalog().relation_id("customers").unwrap();
    let orid = oracle.catalog().relation_id("customers").unwrap();
    assert_eq!(
        db.catalog().relation(rid).current().to_vec(),
        oracle.catalog().relation(orid).current().to_vec()
    );
    assert_eq!(
        db.catalog().relation(rid).log(),
        oracle.catalog().relation(orid).log()
    );
    // Periodic intervals: same intervals and same answers.
    assert_eq!(
        db.query_view("weekly").unwrap(),
        oracle.query_view("weekly").unwrap()
    );
    for idx in 0..3 {
        let key = [Value::Int(idx), Value::Int(1)];
        assert_eq!(
            db.query_view_key("weekly", &key).unwrap(),
            oracle.query_view_key("weekly", &key).unwrap()
        );
    }
}

#[test]
fn durable_footprint_stays_small_after_checkpoint() {
    // Durable state is O(|V| + tail), never O(|C|): 20k appends over 10
    // accounts followed by a checkpoint must leave only a tiny footprint.
    let tmp = TempDir::new("chronicle-restart");
    let mut db = ChronicleDb::open(tmp.path()).unwrap();
    apply_ddl(&mut db);
    let mut gen = AtmGen::new(3, 10);
    for i in 0..20_000usize {
        let row = gen.next_row();
        db.append(
            "atm",
            Chronon(i as i64),
            &[vec![row[0].clone(), row[1].clone()]],
        )
        .unwrap();
    }
    let before = dir_bytes(tmp.path());
    db.checkpoint().unwrap();
    let after = dir_bytes(tmp.path());
    assert!(
        after < 16 * 1024,
        "post-checkpoint footprint should be view-sized, got {after} bytes"
    );
    assert!(after < before / 10, "checkpoint must truncate the log");
}

#[test]
fn programmatic_view_ddl_requires_sql_when_durable() {
    let tmp = TempDir::new("chronicle-restart");
    let mut db = ChronicleDb::open(tmp.path()).unwrap();
    apply_ddl(&mut db);
    // A pre-parsed statement carries no SQL text to log, so recovery could
    // not rebuild the view → rejected on a durable database.
    let stmt = chronicle::sql::parse(
        "CREATE VIEW totals AS SELECT acct, SUM(amount) AS s FROM atm GROUP BY acct",
    )
    .unwrap();
    assert!(matches!(
        db.execute_stmt(stmt).unwrap_err(),
        ChronicleError::Durability { .. }
    ));
    // The SQL path works and survives a reopen.
    db.execute("CREATE VIEW totals AS SELECT acct, SUM(amount) AS s FROM atm GROUP BY acct")
        .unwrap();
    db.execute("APPEND INTO atm VALUES (9, 1.5)").unwrap();
    drop(db);
    let db = ChronicleDb::open(tmp.path()).unwrap();
    assert_eq!(
        db.query_view_key("totals", &[Value::Int(9)])
            .unwrap()
            .unwrap()
            .get(1),
        &Value::Float(1.5)
    );
}

fn dir_bytes(path: &std::path::Path) -> u64 {
    let mut total = 0;
    for entry in std::fs::read_dir(path).unwrap() {
        let entry = entry.unwrap();
        let meta = entry.metadata().unwrap();
        if meta.is_dir() {
            total += dir_bytes(&entry.path());
        } else {
            total += meta.len();
        }
    }
    total
}

// ---- legacy manual snapshot/restore path (regression) ---------------------

#[test]
fn snapshot_restore_reconstructs_all_views() {
    // Phase 1: run a workload.
    let mut db = fresh();
    let mut gen = AtmGen::new(11, 50);
    for i in 0..1_000usize {
        let row = gen.next_row();
        db.append(
            "atm",
            Chronon(i as i64),
            &[vec![row[0].clone(), row[1].clone()]],
        )
        .unwrap();
    }
    let snapshots = db.snapshot_views();
    assert_eq!(snapshots.len(), 3);
    let before: Vec<(String, Vec<Tuple>)> = ["balances", "extremes", "seen_accts"]
        .iter()
        .map(|v| (v.to_string(), db.query_view(v).unwrap()))
        .collect();

    // Phase 2: "restart" — new process: replay DDL, restore snapshots.
    let mut db2 = fresh();
    for (name, bytes) in &snapshots {
        db2.restore_view(name, bytes).unwrap();
    }
    for (name, rows) in &before {
        assert_eq!(
            &db2.query_view(name).unwrap(),
            rows,
            "view `{name}` differs after restart"
        );
    }

    // Phase 3: both instances continue identically on the same suffix.
    let suffix: Vec<Vec<Value>> = (0..50)
        .map(|_| {
            let row = gen.next_row();
            vec![row[0].clone(), row[1].clone()]
        })
        .collect();
    for (i, row) in suffix.iter().enumerate() {
        db.append("atm", Chronon(1_000 + i as i64), std::slice::from_ref(row))
            .unwrap();
        db2.append("atm", Chronon(i as i64), std::slice::from_ref(row))
            .unwrap();
    }
    for name in ["balances", "extremes", "seen_accts"] {
        assert_eq!(
            db.query_view(name).unwrap(),
            db2.query_view(name).unwrap(),
            "view `{name}` diverged after restart + continued ingest"
        );
    }
}
