//! Stock trading with moving windows — §5.1's worked example.
//!
//! Run with `cargo run --example stock_window`.
//!
//! *"consider a periodic view for every day that computes the total number
//! of shares of a stock sold during the 30 days preceding that day ... we
//! should keep the total number of shares sold for each of the last 30
//! days separately, and derive the view as the sum of these 30 numbers."*
//!
//! This example runs the cyclic-buffer [`SlidingWindow`] next to the
//! general periodic-view family over the same sliding calendar and checks
//! they agree, then shows the cost difference.

use chronicle::algebra::{AggFunc, AggSpec, CaExpr, ScaExpr};
use chronicle::prelude::*;
use chronicle::views::SlidingWindow;
use chronicle::workload::TradeGen;

const DAY: i64 = 1; // one tick = one day for readability

fn main() -> Result<(), ChronicleError> {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE trades (sn SEQ, symbol STRING, shares INT, price FLOAT)")?;
    db.execute(
        "CREATE VIEW lifetime_volume AS SELECT symbol, SUM(shares) AS shares FROM trades GROUP BY symbol",
    )?;

    // The general mechanism: one view per overlapping 30-day window,
    // stepping daily.
    let trades_id = db.catalog().chronicle_id("trades")?;
    let window_expr = ScaExpr::group_agg(
        CaExpr::chronicle(db.catalog().chronicle(trades_id)),
        &["symbol"],
        vec![AggSpec::new(AggFunc::Sum(2), "shares")],
    )?;
    db.create_periodic_view(
        "window30",
        window_expr,
        Calendar::sliding(Chronon(0), 30 * DAY, DAY)?,
        Some(0), // windows expire the moment they close
    )?;

    // The specialized mechanism: the cyclic buffer of 30 daily sub-sums.
    let mut cyclic = SlidingWindow::new(Chronon(0), 30, DAY, vec![0], vec![AggFunc::Sum(1)])?;

    // 120 days of trading, a handful of trades per day.
    let mut gen = TradeGen::new(42);
    let mut day = 0i64;
    for i in 0..600usize {
        day = (i / 5) as i64;
        let row = gen.next_row();
        cyclic.insert(
            Chronon(day),
            &Tuple::new(vec![row[0].clone(), row[1].clone()]),
        )?;
        db.append("trades", Chronon(day), &[row])?;
    }

    // Compare today's 30-day totals, both mechanisms, for every symbol.
    // The window *ending* today started 29 days ago; its calendar index is
    // its start day, the leading `interval` column of the family's key.
    let window_idx = Value::Int((day - 29).max(0));
    println!("symbol | cyclic 30-day shares | periodic-view shares");
    let mut checked = 0;
    for sym in ["T", "IBM", "GE", "XON", "MO", "DD", "KO", "PG"] {
        let cyc = cyclic.query(&[Value::str(sym)], Chronon(day))?[0].clone();
        let per = db
            .query_view_key("window30", &[window_idx.clone(), Value::str(sym)])?
            .map(|r| r.get(2).clone())
            .unwrap_or(Value::Null);
        println!("{sym:6} | {cyc:>20} | {per:>20}");
        assert_eq!(cyc, per, "mechanisms must agree for {sym}");
        checked += 1;
    }
    println!("\n{checked} symbols verified: cyclic buffer == periodic views");

    // Cost comparison: the cyclic buffer did one bucket update per trade;
    // the periodic family maintained up to 30 window views per trade.
    let mut windows: Vec<Value> = db
        .query_view("window30")?
        .iter()
        .map(|r| r.get(0).clone())
        .collect();
    windows.dedup();
    println!(
        "periodic family: {} materialised windows; \
         cyclic buffer: {} accumulator updates total ({}/trade)",
        windows.len(),
        cyclic.updates(),
        cyclic.updates() / 600
    );

    // Lifetime volume still flows from the ordinary persistent view.
    let rows = db.query_view("lifetime_volume")?;
    let total: i64 = rows.iter().filter_map(|r| r.get(1).as_int()).sum();
    println!("total shares traded (lifetime view): {total}");
    Ok(())
}
