//! Consumer banking — the Chemical Bank scenario of §1.
//!
//! Run with `cargo run --example banking_atm`.
//!
//! The paper cites the February 18, 1994 Chemical Bank incident, where
//! hand-written balance-update code double-charged ATM withdrawals. Here
//! `dollar_balance` is a *declared* persistent view: the maintenance logic
//! is derived from the definition, so the class of bug is structurally
//! impossible. The example also demonstrates:
//!
//! * the concurrent append pipeline (many ATMs, one maintainer),
//! * a deliberately buggy hand-coded updater side-by-side (the status quo:
//!   a summary field in a `HashMap`, folded by application code),
//! * the ATM precondition: *"a summary field (dollar_balance) be updated as
//!   the transaction is executed, since the summary query needs to be made
//!   before the next ATM withdrawal"*.

use std::collections::HashMap;

use chronicle::db::pipeline::ShardedPipeline;
use chronicle::prelude::*;
use chronicle::workload::AtmGen;

fn main() -> Result<(), ChronicleError> {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT, kind STRING)")?;
    db.execute(
        "CREATE VIEW balances AS SELECT acct, SUM(amount) AS dollar_balance, COUNT(*) AS txns \
         FROM atm GROUP BY acct",
    )?;

    // The status-quo comparator: a hand-maintained `dollar_balance` field
    // per account, updated by application code with the classic
    // double-post bug (withdrawals applied twice).
    let mut buggy: HashMap<i64, f64> = HashMap::new();

    // Four ATMs post transactions concurrently through the pipeline.
    let pipeline = ShardedPipeline::start(db.into(), 256);
    let mut handles = Vec::new();
    let (tx, rx) = std::sync::mpsc::channel::<Vec<Value>>();
    for atm_id in 0..4u64 {
        let h = pipeline.handle();
        let tx = tx.clone();
        handles.push(std::thread::spawn(move || {
            let mut gen = AtmGen::new(atm_id, 8);
            for _ in 0..250usize {
                let row = gen.next_row();
                // Wall-clock ties across concurrent ATMs are fine: the
                // group's chronon only needs to be non-decreasing.
                h.append("atm", Chronon(0), vec![row.clone()])
                    .expect("pipeline append");
                // Ship the same record to the buggy hand-coded path.
                tx.send(row).expect("collector alive");
            }
        }));
    }
    drop(tx);
    for row in rx {
        let acct = row[0].as_int().expect("acct is INT");
        let amount = row[1].as_float().unwrap_or(0.0);
        let balance = buggy.entry(acct).or_insert(0.0);
        if amount < 0.0 {
            *balance += 2.0 * amount; // the Chemical Bank bug
        } else {
            *balance += amount;
        }
    }
    for h in handles {
        h.join().expect("atm thread");
    }
    let db = pipeline.shutdown();

    // Compare balances.
    println!("acct | chronicle view | buggy hand-coded field | diff");
    let mut worst = 0.0f64;
    for acct in 0..8i64 {
        let key = [Value::Int(acct)];
        let correct = db
            .query_view_key("balances", &key)?
            .and_then(|r| r.get(1).as_float())
            .unwrap_or(0.0);
        let bugged = buggy.get(&acct).copied().unwrap_or(0.0);
        let diff = (correct - bugged).abs();
        worst = worst.max(diff);
        println!("{acct:4} | {correct:14.2} | {bugged:21.2} | {diff:8.2}");
    }
    println!("\nworst divergence caused by the hand-written updater: ${worst:.2}");
    assert!(worst > 0.0, "the buggy updater diverges");

    // The ATM precondition: the balance is queryable immediately after the
    // transaction, at point-lookup cost.
    let p99 = db.stats().latency_percentile(0.99);
    println!(
        "appends: {}, p99 maintenance latency: {p99} ns — balances are current before the next withdrawal",
        db.stats().appends
    );
    Ok(())
}
