//! Integration tests for §5.1: periodic views, calendars, expiration, and
//! the equivalence of the cyclic-buffer optimization with the general
//! periodic-view machinery.

use chronicle_testkit::prop::{ints, pair, triple, vec_of};
use chronicle_testkit::{prop_assert_eq, prop_test};

use chronicle::algebra::{AggFunc, AggSpec, CaExpr, ScaExpr};
use chronicle::db::ShardedDb;
use chronicle::prelude::*;
use chronicle::views::SlidingWindow;

/// The distinct `interval` values a family currently materialises.
fn intervals(db: &ChronicleDb, family: &str) -> Vec<i64> {
    let mut idx: Vec<i64> = db
        .query_view(family)
        .unwrap()
        .iter()
        .map(|row| row.get(0).as_int().unwrap())
        .collect();
    idx.dedup();
    idx
}

fn trade_db(retain_all: bool) -> ChronicleDb {
    let mut db = ChronicleDb::new();
    let retain = if retain_all { "RETAIN ALL" } else { "" };
    db.execute(&format!(
        "CREATE CHRONICLE trades (sn SEQ, symbol STRING, shares INT) {retain}"
    ))
    .unwrap();
    db
}

#[test]
fn monthly_billing_statements() {
    let mut db = trade_db(false);
    db.execute(
        "CREATE PERIODIC VIEW monthly AS SELECT symbol, SUM(shares) AS vol \
         FROM trades GROUP BY symbol OVER CALENDAR EVERY 30",
    )
    .unwrap();
    // Month 0: days 0..29, month 1: days 30..59.
    db.execute("APPEND INTO trades AT 3 VALUES ('T', 100)")
        .unwrap();
    db.execute("APPEND INTO trades AT 29 VALUES ('T', 50)")
        .unwrap();
    db.execute("APPEND INTO trades AT 30 VALUES ('T', 7)")
        .unwrap();
    db.execute("APPEND INTO trades AT 59 VALUES ('IBM', 1)")
        .unwrap();

    let vol = |idx: i64, symbol: &str| {
        db.query_view_key("monthly", &[Value::Int(idx), Value::str(symbol)])
            .unwrap()
            .map(|row| row.get(2).clone())
    };
    assert_eq!(vol(0, "T"), Some(Value::Int(150)));
    assert_eq!(vol(1, "T"), Some(Value::Int(7)));
    assert_eq!(vol(1, "IBM"), Some(Value::Int(1)));
    assert_eq!(intervals(&db, "monthly"), vec![0, 1]);
}

#[test]
fn expiry_bounds_space_for_infinite_calendars() {
    let mut db = trade_db(false);
    db.execute(
        "CREATE PERIODIC VIEW m AS SELECT symbol, COUNT(*) AS n \
         FROM trades GROUP BY symbol OVER CALENDAR EVERY 10 EXPIRE AFTER 10",
    )
    .unwrap();
    for day in 0..500i64 {
        db.execute(&format!("APPEND INTO trades AT {day} VALUES ('T', 1)"))
            .unwrap();
    }
    let kept = intervals(&db, "m");
    assert!(
        kept.len() <= 3,
        "expiry keeps the family bounded, got intervals {kept:?}"
    );
    assert_eq!(kept.last(), Some(&49), "the current interval is kept");
}

#[test]
fn single_interval_calendar_is_a_plain_selected_view() {
    // "When the calendar D has only one interval, the periodic view
    // corresponds to a single view defined using an extra selection."
    let mut db = trade_db(false);
    let trades = db.catalog().chronicle_id("trades").unwrap();
    let expr = ScaExpr::group_agg(
        CaExpr::chronicle(db.catalog().chronicle(trades)),
        &["symbol"],
        vec![AggSpec::new(AggFunc::Sum(2), "vol")],
    )
    .unwrap();
    db.create_periodic_view(
        "q1",
        expr,
        Calendar::single(Interval::new(Chronon(10), Chronon(20)).unwrap()),
        None,
    )
    .unwrap();
    for day in 0..30i64 {
        db.execute(&format!("APPEND INTO trades AT {day} VALUES ('T', 1)"))
            .unwrap();
    }
    // Only days 10..19 counted.
    assert_eq!(
        db.query_view_key("q1", &[Value::Int(0), Value::str("T")])
            .unwrap()
            .unwrap()
            .get(2),
        &Value::Int(10)
    );
    assert!(db
        .query_view_key("q1", &[Value::Int(1), Value::str("T")])
        .unwrap()
        .is_none());
}

/// A family's expiry follows the clock of the appends routed to it, never
/// an append to a chronicle in another group, whose clock is independent.
/// The answer is the same on one engine and with the two groups on two
/// shards.
#[test]
fn family_expiry_follows_its_own_group_clock() {
    for expire in ["", " EXPIRE AFTER 10"] {
        let one = ChronicleDb::new().into();
        let two = ShardedDb::new(2).unwrap();
        for mut db in [one, two] {
            for sql in [
                "CREATE GROUP a",
                "CREATE GROUP b",
                "CREATE CHRONICLE txns (sn SEQ, acct INT, amt INT) IN GROUP a",
                "CREATE CHRONICLE other (sn SEQ, x INT) IN GROUP b",
                &format!(
                    "CREATE PERIODIC VIEW m AS SELECT acct, SUM(amt) AS total FROM txns \
                     GROUP BY acct OVER CALENDAR EVERY 30{expire}"
                ),
                "APPEND INTO txns AT 5 VALUES (7, 10)",
                "APPEND INTO other AT 100 VALUES (1)",
                "APPEND INTO txns AT 6 VALUES (7, 1)",
            ] {
                db.execute(sql).unwrap();
            }
            assert_eq!(
                db.query_view_key("m", &[Value::Int(0), Value::Int(7)])
                    .unwrap(),
                Some(Tuple::new(vec![
                    Value::Int(0),
                    Value::Int(7),
                    Value::Int(11)
                ])),
                "{} shard(s){expire}",
                db.shard_count()
            );
        }
    }
}

prop_test! {
    /// The §5.1 cyclic buffer computes exactly what the general
    /// periodic-view family computes for every overlapping window, for
    /// arbitrary trade streams.
    fn cyclic_buffer_equals_periodic_views(cases = 32, seed = 0xC1C11C;
        trades in vec_of(triple(ints(0..3usize), ints(1..100i64), ints(0..4i64)), 1..60),
        width in ints(2..6i64),
    ) {
        let symbols = ["T", "IBM", "GE"];
        let mut db = trade_db(false);
        let trades_id = db.catalog().chronicle_id("trades").unwrap();
        let expr = ScaExpr::group_agg(
            CaExpr::chronicle(db.catalog().chronicle(trades_id)),
            &["symbol"],
            vec![
                AggSpec::new(AggFunc::Sum(2), "vol"),
                AggSpec::new(AggFunc::Max(2), "biggest"),
            ],
        )
        .unwrap();
        db.create_periodic_view(
            "win",
            expr,
            Calendar::sliding(Chronon(0), width, 1).unwrap(),
            None,
        )
        .unwrap();
        let mut cyclic = SlidingWindow::new(
            Chronon(0),
            width as usize,
            1,
            vec![0],
            vec![AggFunc::Sum(1), AggFunc::Max(1)],
        )
        .unwrap();

        // Trades arrive with non-decreasing day offsets.
        let mut day = 0i64;
        for (sym, shares, advance) in &trades {
            day += advance;
            let symbol = symbols[*sym];
            db.execute(&format!(
                "APPEND INTO trades AT {day} VALUES ('{symbol}', {shares})"
            ))
            .unwrap();
            cyclic
                .insert(Chronon(day), &Tuple::new(vec![Value::str(symbol), Value::Int(*shares)]))
                .unwrap();
        }

        // The window ending today started (width-1) days ago.
        let idx = (day - (width - 1)).max(0);
        for symbol in symbols {
            let key = [Value::str(symbol)];
            let cyc = cyclic.query(&key, Chronon(day)).unwrap();
            match db.query_view_key("win", &[Value::Int(idx), Value::str(symbol)]).unwrap() {
                Some(row) => {
                    prop_assert_eq!(&cyc[0], row.get(2), "SUM mismatch for {}", symbol);
                    prop_assert_eq!(&cyc[1], row.get(3), "MAX mismatch for {}", symbol);
                }
                None => {
                    prop_assert_eq!(&cyc[0], &Value::Null, "{} traded?", symbol);
                }
            }
        }
    }
}

prop_test! {
    /// Periodic views over a monthly calendar partition the lifetime view:
    /// the per-month sums add up to the lifetime sum.
    fn monthly_views_partition_lifetime(cases = 32, seed = 0x30DA45;
        trades in vec_of(pair(ints(1..100i64), ints(0..5i64)), 1..50),
    ) {
        let mut db = trade_db(false);
        db.execute(
            "CREATE VIEW lifetime AS SELECT symbol, SUM(shares) AS vol FROM trades GROUP BY symbol",
        )
        .unwrap();
        db.execute(
            "CREATE PERIODIC VIEW monthly AS SELECT symbol, SUM(shares) AS vol \
             FROM trades GROUP BY symbol OVER CALENDAR EVERY 7",
        )
        .unwrap();
        let mut day = 0i64;
        for (shares, advance) in &trades {
            day += advance;
            db.execute(&format!("APPEND INTO trades AT {day} VALUES ('T', {shares})"))
                .unwrap();
        }
        let lifetime = db
            .query_view_key("lifetime", &[Value::str("T")])
            .unwrap()
            .and_then(|r| r.get(1).as_int())
            .unwrap_or(0);
        let mut monthly_total = 0i64;
        for row in db.query_view("monthly").unwrap() {
            if row.get(1) == &Value::str("T") {
                monthly_total += row.get(2).as_int().unwrap_or(0);
            }
        }
        prop_assert_eq!(monthly_total, lifetime);
    }
}
