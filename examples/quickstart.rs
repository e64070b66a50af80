//! Quickstart: the chronicle data model in ten statements.
//!
//! Run with `cargo run --example quickstart`.
//!
//! A chronicle database is the quadruple (C, R, L, V) of the paper
//! (Def. 2.1): chronicles, relations, a view-definition language, and
//! persistent views maintained incrementally on every append — without
//! storing the chronicle.

use chronicle::prelude::*;

fn main() -> Result<(), ChronicleError> {
    let mut db = ChronicleDb::new();

    // C: an append-only chronicle of call records. RETAIN NONE means the
    // chronicle itself is never stored — the paper's headline constraint.
    db.execute("CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT)")?;

    // R: an ordinary relation (proactive updates only).
    db.execute(
        "CREATE RELATION customers (acct INT, name STRING, plan STRING, PRIMARY KEY (acct))",
    )?;
    db.execute("INSERT INTO customers VALUES (555, 'alice', 'gold'), (777, 'bob', 'basic')")?;

    // L & V: persistent views, written declaratively. The planner validates
    // them into the chronicle algebra and classifies their maintenance
    // complexity before any data flows.
    db.execute(
        "CREATE VIEW total_minutes AS \
         SELECT caller, SUM(minutes) AS minutes_called, COUNT(*) AS calls \
         FROM calls GROUP BY caller",
    )?;
    db.execute(
        "CREATE VIEW gold_minutes AS \
         SELECT caller, SUM(minutes) AS m FROM calls \
         JOIN customers ON caller = acct WHERE plan = 'gold' GROUP BY caller",
    )?;

    let v = db.maintainer().expr_of("total_minutes")?;
    println!(
        "view `total_minutes` is in {} => {}",
        v.language_name(),
        v.im_class()
    );
    let v = db.maintainer().expr_of("gold_minutes")?;
    println!(
        "view `gold_minutes`  is in {} => {}\n",
        v.language_name(),
        v.im_class()
    );

    // Transactions stream in; every append maintains all affected views in
    // time independent of how much history has flowed through.
    db.execute("APPEND INTO calls VALUES (555, 12.5)")?;
    db.execute("APPEND INTO calls VALUES (777, 3.0)")?;
    db.execute("APPEND INTO calls VALUES (555, 4.5), (777, 1.0)")?;

    // Summary queries are point lookups on the materialized views —
    // "answered in subseconds" regardless of chronicle size (§1).
    for caller in [555i64, 777] {
        let row = db
            .query_view_key("total_minutes", &[Value::Int(caller)])?
            .expect("caller has activity");
        println!(
            "caller {caller}: {} minutes over {} calls",
            row.get(1),
            row.get(2)
        );
    }
    let gold = db.query_view("gold_minutes")?;
    println!("\ngold-plan minutes: {gold:?}");

    // The chronicle was never stored...
    let calls_id = db.catalog().chronicle_id("calls")?;
    let chronicle = db.catalog().chronicle(calls_id);
    println!(
        "\nchronicle `calls`: {} tuples appended, {} stored",
        chronicle.total_appended(),
        chronicle.stored_len()
    );
    // ...and maintenance stats confirm the views were kept current anyway.
    println!(
        "appends: {}, mean maintenance: {:.0} ns",
        db.stats().appends,
        db.stats().mean_maintenance_nanos()
    );
    Ok(())
}
