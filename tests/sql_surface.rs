//! Broad coverage of the declarative surface: every statement kind, every
//! aggregate, qualified names, retention clauses, calendars.

use chronicle::db::{ExecOutcome, ShardedDb};
use chronicle::prelude::*;

#[test]
fn every_aggregate_function_via_sql() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)")
        .unwrap();
    db.execute(
        "CREATE VIEW stats AS SELECT k, \
         COUNT(*) AS n, COUNT(v) AS nv, SUM(v) AS s, MIN(v) AS lo, MAX(v) AS hi, \
         AVG(v) AS mean, STDDEV(v) AS sd, FIRST(v) AS first, LAST(v) AS last \
         FROM c GROUP BY k",
    )
    .unwrap();
    for (i, v) in [10.0f64, 30.0, 20.0].iter().enumerate() {
        db.execute(&format!("APPEND INTO c AT {i} VALUES (1, {v})"))
            .unwrap();
    }
    let row = db
        .query_view_key("stats", &[Value::Int(1)])
        .unwrap()
        .unwrap();
    assert_eq!(row.get(1), &Value::Int(3)); // COUNT(*)
    assert_eq!(row.get(2), &Value::Int(3)); // COUNT(v)
    assert_eq!(row.get(3), &Value::Float(60.0)); // SUM
    assert_eq!(row.get(4), &Value::Float(10.0)); // MIN
    assert_eq!(row.get(5), &Value::Float(30.0)); // MAX
    assert_eq!(row.get(6), &Value::Float(20.0)); // AVG
    let sd = row.get(7).as_float().unwrap();
    assert!((sd - (200.0f64 / 3.0).sqrt()).abs() < 1e-9); // STDDEV
    assert_eq!(row.get(8), &Value::Float(10.0)); // FIRST
    assert_eq!(row.get(9), &Value::Float(20.0)); // LAST
}

#[test]
fn retention_clauses() {
    let mut db = ChronicleDb::new();
    // One group per chronicle so each has an independent clock.
    for name in ["a", "b", "c", "d"] {
        db.execute(&format!("CREATE GROUP g_{name}")).unwrap();
    }
    db.execute("CREATE CHRONICLE a (sn SEQ, x INT) IN GROUP g_a RETAIN ALL")
        .unwrap();
    db.execute("CREATE CHRONICLE b (sn SEQ, x INT) IN GROUP g_b RETAIN LAST 3")
        .unwrap();
    db.execute("CREATE CHRONICLE c (sn SEQ, x INT) IN GROUP g_c RETAIN NONE")
        .unwrap();
    db.execute("CREATE CHRONICLE d (sn SEQ, x INT) IN GROUP g_d")
        .unwrap(); // default NONE
    for name in ["a", "b", "c", "d"] {
        for i in 0..5 {
            db.execute(&format!("APPEND INTO {name} AT {i} VALUES ({i})"))
                .unwrap();
        }
    }
    let stored = |name: &str| {
        db.catalog()
            .chronicle(db.catalog().chronicle_id(name).unwrap())
            .stored_len()
    };
    assert_eq!(stored("a"), 5);
    assert_eq!(stored("b"), 3);
    assert_eq!(stored("c"), 0);
    assert_eq!(stored("d"), 0);
}

#[test]
fn where_variants() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT, tag STRING)")
        .unwrap();
    db.execute(
        "CREATE VIEW and_v AS SELECT k, COUNT(*) AS n FROM c WHERE v > 1.0 AND v < 5.0 GROUP BY k",
    )
    .unwrap();
    db.execute("CREATE VIEW or_v AS SELECT k, COUNT(*) AS n FROM c WHERE tag = 'a' OR tag = 'b' GROUP BY k").unwrap();
    db.execute("CREATE VIEW ne_v AS SELECT k, COUNT(*) AS n FROM c WHERE tag <> 'x' GROUP BY k")
        .unwrap();
    db.execute("CREATE VIEW col_v AS SELECT k, COUNT(*) AS n FROM c WHERE v > k GROUP BY k")
        .unwrap();
    let rows = [
        (1i64, 0.5f64, "a"),
        (1, 2.0, "b"),
        (1, 3.0, "x"),
        (1, 9.0, "c"),
    ];
    for (i, (k, v, tag)) in rows.iter().enumerate() {
        db.execute(&format!("APPEND INTO c AT {i} VALUES ({k}, {v}, '{tag}')"))
            .unwrap();
    }
    let n = |view: &str| {
        db.query_view_key(view, &[Value::Int(1)])
            .unwrap()
            .and_then(|r| r.get(1).as_int())
            .unwrap_or(0)
    };
    assert_eq!(n("and_v"), 2, "2.0 and 3.0 are in (1, 5)");
    assert_eq!(n("or_v"), 2, "tags a and b");
    assert_eq!(n("ne_v"), 3, "everything but x");
    assert_eq!(n("col_v"), 3, "v > k=1 holds for 2.0, 3.0, 9.0");
}

#[test]
fn qualified_and_aliased_names() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE calls (sn SEQ, acct INT, minutes FLOAT)")
        .unwrap();
    db.execute("CREATE RELATION customers (acct INT, state STRING, PRIMARY KEY (acct))")
        .unwrap();
    db.execute("INSERT INTO customers VALUES (1, 'NJ')")
        .unwrap();
    // Both acct columns exist post-join; qualified names disambiguate.
    db.execute(
        "CREATE VIEW v AS SELECT calls.acct, SUM(calls.minutes) AS m FROM calls \
         JOIN customers ON calls.acct = customers.acct \
         WHERE customers.state = 'NJ' GROUP BY calls.acct",
    )
    .unwrap();
    db.execute("APPEND INTO calls AT 1 VALUES (1, 5.0)")
        .unwrap();
    assert_eq!(
        db.query_view_key("v", &[Value::Int(1)])
            .unwrap()
            .unwrap()
            .get(1),
        &Value::Float(5.0)
    );
}

#[test]
fn multi_row_appends_share_one_sequence_number() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT) RETAIN ALL")
        .unwrap();
    db.execute("APPEND INTO c VALUES (1), (2), (3)").unwrap();
    let id = db.catalog().chronicle_id("c").unwrap();
    let sns: Vec<SeqNo> = db
        .catalog()
        .chronicle(id)
        .scan_all()
        .unwrap()
        .map(|t| t.seq_at(0).unwrap())
        .collect();
    assert_eq!(sns, vec![SeqNo(1), SeqNo(1), SeqNo(1)]);
    // The group's next append gets SN 2.
    db.execute("APPEND INTO c VALUES (4)").unwrap();
    assert_eq!(db.catalog().chronicle(id).last_seq(), SeqNo(2));
}

#[test]
fn periodic_view_sql_variants() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)")
        .unwrap();
    let periodic_weekly = "CREATE PERIODIC VIEW weekly AS SELECT k, SUM(v) AS s FROM c \
                           GROUP BY k OVER CALENDAR EVERY 7";
    db.execute(periodic_weekly).unwrap();
    db.execute(
        "CREATE PERIODIC VIEW sliding AS SELECT k, SUM(v) AS s FROM c GROUP BY k \
         OVER CALENDAR SLIDING 7 STEP 2 ANCHOR 1 EXPIRE AFTER 14",
    )
    .unwrap();
    db.execute("APPEND INTO c AT 8 VALUES (1, 2.0)").unwrap();
    let row = |family: &str, idx: i64| {
        db.query_view_key(family, &[Value::Int(idx), Value::Int(1)])
            .unwrap()
    };
    assert!(row("weekly", 1).is_some());
    // Sliding windows starting at 1+2i covering chronon 8: i in {1, 2, 3}
    // gives starts 3, 5, 7.
    assert!(row("sliding", 1).is_some());
    assert!(row("sliding", 3).is_some());
    assert!(row("sliding", 4).is_none());
    // A family answers SELECT like any view, filtered on `interval`.
    match db
        .execute("SELECT * FROM sliding WHERE interval = 2 AND k = 1")
        .unwrap()
    {
        ExecOutcome::Rows(rows) => {
            let want = Tuple::new(vec![Value::Int(2), Value::Int(1), Value::Float(2.0)]);
            assert_eq!(rows, vec![want]);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Duplicate family name rejected.
    assert!(matches!(
        db.execute(periodic_weekly).unwrap_err(),
        ChronicleError::AlreadyExists { .. }
    ));
    // One name space: a name taken by either kind of view refuses the
    // other kind too, on one engine and on shards.
    let mut one = ChronicleDb::new();
    refuses_cross_kind_duplicates(|sql| one.execute(sql), periodic_weekly);
    let mut two = ShardedDb::new(2).unwrap();
    refuses_cross_kind_duplicates(|sql| two.execute(sql), periodic_weekly);
}

fn refuses_cross_kind_duplicates(
    mut exec: impl FnMut(&str) -> Result<ExecOutcome, ChronicleError>,
    periodic_weekly: &str,
) {
    let plain_m = "CREATE VIEW m AS SELECT k, SUM(v) AS s FROM c GROUP BY k";
    let periodic_m = "CREATE PERIODIC VIEW m AS SELECT k, SUM(v) AS s FROM c GROUP BY k \
                      OVER CALENDAR EVERY 7";
    let plain_weekly = "CREATE VIEW weekly AS SELECT k, SUM(v) AS s FROM c GROUP BY k";
    for sql in [
        "CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)",
        plain_m,
        periodic_weekly,
    ] {
        exec(sql).unwrap();
    }
    for dup in [periodic_m, plain_weekly] {
        assert!(
            matches!(exec(dup).unwrap_err(), ChronicleError::AlreadyExists { .. }),
            "{dup}"
        );
    }
}

#[test]
fn select_statement_filters() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)")
        .unwrap();
    db.execute("CREATE RELATION r (k INT, w STRING, PRIMARY KEY (k))")
        .unwrap();
    db.execute("CREATE VIEW s AS SELECT k, SUM(v) AS t FROM c GROUP BY k")
        .unwrap();
    db.execute("INSERT INTO r VALUES (1, 'x'), (2, 'y')")
        .unwrap();
    for i in 0..4 {
        db.execute(&format!("APPEND INTO c AT {i} VALUES ({}, 1.0)", i % 2))
            .unwrap();
    }
    let mut rows = |sql: &str| match db.execute(sql) {
        Ok(chronicle::db::ExecOutcome::Rows(r)) => r,
        other => panic!("unexpected {other:?}"),
    };
    assert_eq!(rows("SELECT * FROM s").len(), 2);
    assert_eq!(rows("SELECT * FROM s WHERE k = 0").len(), 1);
    assert_eq!(rows("SELECT * FROM r WHERE w = 'y'").len(), 1);
    assert_eq!(rows("SELECT * FROM r WHERE k = 1 AND w = 'y'").len(), 0);
}

#[test]
fn comments_and_case_insensitive_keywords() {
    let mut db = ChronicleDb::new();
    db.execute("create chronicle C1 (sn seq, K int) -- trailing comment")
        .unwrap();
    db.execute("create view V1 as select K, count(*) as n from C1 group by K")
        .unwrap();
    db.execute("Append Into C1 Values (5)").unwrap();
    assert_eq!(db.query_view("V1").unwrap().len(), 1);
}
