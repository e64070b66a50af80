//! Cross-crate end-to-end scenarios driven entirely through the SQL
//! front-end, checked against the oracle evaluator.

use chronicle::algebra::eval::{canon, eval_sca};
use chronicle::prelude::*;

#[test]
fn cellular_scenario_full_stack() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE calls (sn SEQ, caller INT, callee INT, minutes FLOAT) RETAIN ALL")
        .unwrap();
    db.execute("CREATE RELATION customers (acct INT, plan STRING, PRIMARY KEY (acct))")
        .unwrap();
    db.execute("INSERT INTO customers VALUES (1, 'gold'), (2, 'basic'), (3, 'gold')")
        .unwrap();
    db.execute(
        "CREATE VIEW per_caller AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n \
         FROM calls GROUP BY caller",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW gold_usage AS SELECT caller, SUM(minutes) AS m FROM calls \
         JOIN customers ON caller = acct WHERE plan = 'gold' GROUP BY caller",
    )
    .unwrap();
    db.execute(
        "CREATE VIEW long_calls AS SELECT caller, COUNT(*) AS n FROM calls \
         WHERE minutes > 10.0 GROUP BY caller",
    )
    .unwrap();

    for i in 0..200i64 {
        let caller = i % 3 + 1;
        let minutes = (i % 23) as f64;
        db.execute(&format!(
            "APPEND INTO calls AT {i} VALUES ({caller}, 9999, {minutes:.1})"
        ))
        .unwrap();
        // Mid-stream plan change (proactive).
        if i == 100 {
            db.execute("UPDATE customers SET plan = 'basic' WHERE acct = 1")
                .unwrap();
        }
    }

    // Every view equals its from-scratch oracle evaluation (which uses the
    // exact temporal-join semantics over the stored chronicle).
    for view in ["per_caller", "gold_usage", "long_calls"] {
        let incremental = canon(db.query_view(view).unwrap());
        let expr = db.maintainer().expr_of(view).unwrap();
        let oracle = canon(eval_sca(db.catalog(), expr).unwrap());
        assert_eq!(incremental, oracle, "view `{view}` diverged from oracle");
    }

    // Spot check: caller 1's gold usage only counts minutes before the
    // plan change at i == 100.
    let gold1 = db
        .query_view_key("gold_usage", &[Value::Int(1)])
        .unwrap()
        .unwrap();
    let all1 = db
        .query_view_key("per_caller", &[Value::Int(1)])
        .unwrap()
        .unwrap();
    assert!(gold1.get(1).as_float().unwrap() < all1.get(1).as_float().unwrap());
}

#[test]
fn view_classification_surfaces_through_sql() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)")
        .unwrap();
    db.execute("CREATE RELATION r (k INT, w FLOAT, PRIMARY KEY (k))")
        .unwrap();
    db.execute("CREATE RELATION keyless (k INT, w FLOAT)")
        .unwrap();

    db.execute("CREATE VIEW v1 AS SELECT k, SUM(v) AS s FROM c GROUP BY k")
        .unwrap();
    db.execute("CREATE VIEW v2 AS SELECT k, SUM(v) AS s FROM c JOIN r ON k = k GROUP BY k")
        .unwrap();
    db.execute("CREATE VIEW v3 AS SELECT k, SUM(v) AS s FROM c CROSS JOIN keyless GROUP BY k")
        .unwrap();

    let class = |name: &str| {
        db.maintainer()
            .expr_of(name)
            .unwrap()
            .im_class()
            .paper_name()
    };
    assert_eq!(class("v1"), "IM-Constant");
    assert_eq!(class("v2"), "IM-log(R)");
    assert_eq!(class("v3"), "IM-R^k");
}

#[test]
fn projection_views_maintain_set_semantics() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT) RETAIN ALL")
        .unwrap();
    db.execute("CREATE VIEW distinct_k AS SELECT k FROM c")
        .unwrap();
    for i in 0..50i64 {
        db.execute(&format!("APPEND INTO c AT {i} VALUES ({}, 1.0)", i % 7))
            .unwrap();
    }
    let rows = db.query_view("distinct_k").unwrap();
    assert_eq!(rows.len(), 7);
    let expr = db.maintainer().expr_of("distinct_k").unwrap();
    assert_eq!(canon(rows), canon(eval_sca(db.catalog(), expr).unwrap()));
}

#[test]
fn multi_chronicle_group_union_view() {
    // Two chronicles in one group; a view over their union maintained from
    // both append streams.
    let mut db = ChronicleDb::new();
    db.execute("CREATE GROUP traffic").unwrap();
    db.execute(
        "CREATE CHRONICLE calls (sn SEQ, acct INT, units FLOAT) IN GROUP traffic RETAIN ALL",
    )
    .unwrap();
    db.execute(
        "CREATE CHRONICLE texts (sn SEQ, acct INT, units FLOAT) IN GROUP traffic RETAIN ALL",
    )
    .unwrap();
    // The SQL layer has single-FROM views; build the union via the API.
    let calls = db.catalog().chronicle_id("calls").unwrap();
    let texts = db.catalog().chronicle_id("texts").unwrap();
    let expr = chronicle::algebra::ScaExpr::group_agg(
        chronicle::algebra::CaExpr::chronicle(db.catalog().chronicle(calls))
            .union(chronicle::algebra::CaExpr::chronicle(
                db.catalog().chronicle(texts),
            ))
            .unwrap(),
        &["acct"],
        vec![chronicle::algebra::AggSpec::new(
            chronicle::algebra::AggFunc::Sum(2),
            "units",
        )],
    )
    .unwrap();
    db.create_view("all_units", expr).unwrap();

    db.execute("APPEND INTO calls AT 1 VALUES (7, 2.0)")
        .unwrap();
    db.execute("APPEND INTO texts AT 2 VALUES (7, 0.5)")
        .unwrap();
    db.execute("APPEND INTO calls AT 3 VALUES (8, 1.0)")
        .unwrap();

    let row = db
        .query_view_key("all_units", &[Value::Int(7)])
        .unwrap()
        .unwrap();
    assert_eq!(row.get(1), &Value::Float(2.5));
    // Group-level monotonicity: the union view's oracle agrees.
    let expr = db.maintainer().expr_of("all_units").unwrap();
    assert_eq!(
        canon(db.query_view("all_units").unwrap()),
        canon(eval_sca(db.catalog(), expr).unwrap())
    );
}

#[test]
fn unstored_chronicle_supports_views_but_not_scans() {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)")
        .unwrap(); // RETAIN NONE
    db.execute("CREATE VIEW s AS SELECT k, SUM(v) AS t FROM c GROUP BY k")
        .unwrap();
    for i in 0..100i64 {
        db.execute(&format!("APPEND INTO c AT {i} VALUES (1, 1.0)"))
            .unwrap();
    }
    assert_eq!(
        db.query_view_key("s", &[Value::Int(1)])
            .unwrap()
            .unwrap()
            .get(1),
        &Value::Float(100.0)
    );
    // The oracle CANNOT run: the chronicle was never stored. That is the
    // model's whole point.
    let expr = db.maintainer().expr_of("s").unwrap();
    assert!(matches!(
        eval_sca(db.catalog(), expr).unwrap_err(),
        ChronicleError::ChronicleNotStored { .. }
    ));
}
