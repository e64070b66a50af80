//! Cross-version pin of the view snapshot codec.
//!
//! Checkpoint images embed `snapshot_views()` verbatim, so an image written
//! by one build must restore under the next. The round-trip tests elsewhere
//! only prove a build agrees with itself; this test compares the bytes
//! against committed literals for all five view shapes (chronicle group,
//! chronicle projection, grouped periodic family over two intervals,
//! relation group, relation projection) and pins the emission order:
//! chronicle views and families first, then relation views, each in id
//! order — the relation views here are created *before* the chronicle
//! views, so an order keyed on id alone would fail.

use chronicle::prelude::*;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn five_shapes() -> ChronicleDb {
    let mut db = ChronicleDb::new();
    for sql in [
        "CREATE RELATION accts (acct INT, region INT, rate FLOAT, PRIMARY KEY (acct))",
        "INSERT INTO accts VALUES (1, 10, 0.5), (2, 10, 1.5), (3, 20, 2.0)",
        "CREATE VIEW by_region AS SELECT region, COUNT(*) AS n, SUM(rate) AS r \
         FROM accts GROUP BY region",
        "CREATE VIEW regions AS SELECT region FROM accts",
        "CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT)",
        "CREATE VIEW totals AS SELECT caller, SUM(minutes) AS m, COUNT(*) AS n \
         FROM calls GROUP BY caller",
        "CREATE VIEW callers AS SELECT caller FROM calls",
        "CREATE PERIODIC VIEW daily AS SELECT caller, SUM(minutes) AS m FROM calls \
         GROUP BY caller OVER CALENDAR EVERY 2",
        "APPEND INTO calls VALUES (7, 2.5), (8, 1.0)",
        "APPEND INTO calls VALUES (7, 4.0)",
        "UPDATE accts SET region = 20 WHERE acct = 2",
        "DELETE FROM accts WHERE acct = 1",
        "INSERT INTO accts VALUES (4, 30, 3.0)",
    ] {
        db.execute(sql).unwrap();
    }
    db
}

#[test]
fn snapshot_views_bytes_are_pinned() {
    let got: Vec<(String, String)> = five_shapes()
        .snapshot_views()
        .into_iter()
        .map(|(name, bytes)| (name, hex(&bytes)))
        .collect();
    let want = [
        (
            "totals",
            "0500000043485256310200000000000000000200000000000000010000000207\
                000000000000000200000002020000000100000000000000000000000000001a\
                400200000000000000020000000000000000ffffffff00020000000000000001\
                0000000208000000000000000200000002020000000100000000000000000000\
                00000000f03f0100000000000000010000000000000000ffffffff0001000000\
                00000000",
        ),
        (
            "callers",
            "0500000043485256310200000000000000010200000000000000010000000207\
                0000000000000002000000000000000100000002080000000000000001000000\
                00000000",
        ),
        (
            "daily",
            "0500000043485246310200000000000000000300000000000000020000000200\
                0000000000000002070000000000000001000000020200000001000000000000\
                0000000000000000044001000000000000000100000000000000020000000200\
                0000000000000002080000000000000001000000020200000001000000000000\
                0000000000000000f03f01000000000000000100000000000000020000000201\
                0000000000000002070000000000000001000000020200000001000000000000\
                0000000000000000104001000000000000000100000000000000",
        ),
        (
            "by_region",
            "0500000043485252310300000000000000000200000000000000010000000214\
                0000000000000002000000000000000200000000ffffffff0002000000000000\
                0002020000000100000000000000000000000000000c40020000000000000002\
                0000000000000001000000021e00000000000000010000000000000002000000\
                00ffffffff000100000000000000020200000001000000000000000000000000\
                0000084001000000000000000100000000000000",
        ),
        (
            "regions",
            "0500000043485252310300000000000000010200000000000000010000000214\
                00000000000000020000000000000001000000021e0000000000000001000000\
                00000000",
        ),
    ];
    let got: Vec<(&str, &str)> = got.iter().map(|(n, h)| (n.as_str(), h.as_str())).collect();
    assert_eq!(got, want);
}
