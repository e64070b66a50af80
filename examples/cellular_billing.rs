//! Cellular billing — the paper's §1 motivating application.
//!
//! Run with `cargo run --example cellular_billing`.
//!
//! * *"a summary query that computes the total number of minutes of calls
//!   made in the current billing month from a phone number. This query
//!   could be executed whenever a cellular phone is turned on"* — a
//!   periodic persistent view over a monthly calendar (§5.1),
//! * *"the total number of minutes of calls made from a given cellular
//!   number since the number was assigned"* — an ordinary persistent view,
//! * the tiered discount plan of §5.3, maintained incrementally.

use chronicle::prelude::*;
use chronicle::views::TierSchedule;
use chronicle::workload::CallGen;

const DAY: i64 = 86_400;
const MONTH: i64 = 30 * DAY;

fn main() -> Result<(), ChronicleError> {
    let mut db = ChronicleDb::new();
    db.execute(
        "CREATE CHRONICLE calls (sn SEQ, caller INT, callee INT, minutes FLOAT, cost FLOAT)",
    )?;

    // Lifetime totals (since the number was assigned).
    db.execute(
        "CREATE VIEW lifetime AS SELECT caller, SUM(minutes) AS minutes, COUNT(*) AS calls \
         FROM calls GROUP BY caller",
    )?;
    // Current-billing-month totals: a periodic view family over a monthly
    // calendar; closed months are kept two months for statements, then
    // expire (space reuse for an infinite calendar).
    db.execute(&format!(
        "CREATE PERIODIC VIEW monthly AS SELECT caller, SUM(minutes) AS minutes, SUM(cost) AS cost \
         FROM calls GROUP BY caller OVER CALENDAR EVERY {MONTH} EXPIRE AFTER {}",
        2 * MONTH
    ))?;

    // Simulate three months of traffic for 50 subscribers.
    let mut gen = CallGen::new(7, 50);
    let mut discount = TierSchedule::us_telephone_1995();
    let mut t = 0i64;
    let month_of = |t: i64| (t / MONTH) as u64;
    let mut current_month = 0u64;
    for i in 0..3_000usize {
        t += (i as i64 % 97) * 60 + 30; // irregular call arrival
        if month_of(t) != current_month {
            // Month rolled over: close the discount period.
            let finals = discount.close_period();
            let discounted: usize = finals.values().filter(|s| s.tier > 0).count();
            println!(
                "month {current_month} closed: {} active subscribers, {discounted} earned a discount",
                finals.len()
            );
            current_month = month_of(t);
        }
        let row = gen.next_row();
        let caller = row[0].clone();
        let cost = row[3].as_float().expect("cost");
        db.append("calls", Chronon(t), &[row])?;
        discount.apply(&[caller], cost);
    }

    // "Phone turned on": show this month's minutes for subscriber 7 —
    // a point lookup against the active periodic view.
    let this_month = Value::Int(month_of(t) as i64);
    let on_screen = db
        .query_view_key("monthly", &[this_month, Value::Int(7)])?
        .map(|row| row.get(2).as_float().unwrap_or(0.0))
        .unwrap_or(0.0);
    println!("\nsubscriber 7, minutes this month: {on_screen:.1}");

    // Customer-care agent: lifetime minutes.
    if let Some(row) = db.query_view_key("lifetime", &[Value::Int(7)])? {
        println!(
            "subscriber 7, lifetime: {:.1} minutes over {} calls",
            row.get(1).as_float().unwrap_or(0.0),
            row.get(2)
        );
    }

    // Mid-month discount state is always current (no batch job needed).
    let st = discount.get(&[Value::Int(7)]);
    println!(
        "subscriber 7, running bill: ${:.2} gross, tier {} -> ${:.2} after discount",
        st.total, st.tier, st.discounted
    );

    let mut months: Vec<Value> = db
        .query_view("monthly")?
        .iter()
        .map(|row| row.get(0).clone())
        .collect();
    months.dedup();
    println!(
        "\nperiodic view: {} materialised months (expired months reused)",
        months.len()
    );
    Ok(())
}
