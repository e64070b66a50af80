//! End-to-end TCP replication: a leader server, a SQL client, and a
//! follower replica, all real sockets on loopback.
//!
//! Honors `SHARDS` (default 2) so the verify script can sweep shard
//! counts without editing the test.

use std::time::Duration;

use chronicle_db::pipeline::{ShardedPipeline, ShardedPipelineHandle};
use chronicle_db::{DurabilityOptions, ShardedDb};
use chronicle_net::{Client, RemoteOutcome, Replica, Server, WalSource};
use chronicle_testkit::TempDir;
use chronicle_types::Value;

fn shards() -> usize {
    std::env::var("SHARDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2)
}

/// The leader's per-shard durable frontier, read fresh off the pipeline.
/// Convergence must be measured against this — `replication_lag` only
/// reflects the *last heartbeat*, which can be a whole catch-up poll stale
/// while appends keep landing.
fn durable_frontier(handle: &ShardedPipelineHandle) -> Vec<u64> {
    (0..handle.shard_count())
        .map(|s| WalSource::last_durable_lsn(handle, s).unwrap())
        .collect()
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        // Tiny segments: rotation happens mid-test, so sealed-segment
        // shipping and active-segment tailing are both exercised.
        segment_bytes: 1024,
        ..DurabilityOptions::default()
    }
}

#[test]
fn leader_serves_sql_and_follower_converges_over_tcp() {
    let n = shards();
    let dir = TempDir::new("chronicle-net-e2e");
    let leader_path = dir.path().join("leader");
    let follower_path = dir.path().join("follower");

    let db = ShardedDb::open_with(&leader_path, n, opts()).unwrap();
    let pipeline = ShardedPipeline::start(db, 64);
    let server = Server::start(pipeline.handle(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    // A client drives DDL and appends over the wire.
    let mut client = Client::connect(&addr).unwrap();
    assert_eq!(client.shards() as usize, n);
    client.sql("CREATE GROUP telecom").unwrap();
    client
        .sql("CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP telecom")
        .unwrap();
    client
        .sql("CREATE VIEW totals AS SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller")
        .unwrap();
    for i in 0..60 {
        let out = client
            .sql(&format!(
                "APPEND INTO calls VALUES ({}, {:.1})",
                i % 5,
                (i % 7 + 1) as f64
            ))
            .unwrap();
        assert!(matches!(out, RemoteOutcome::Appended { .. }));
    }

    // A follower attaches mid-history and catches up.
    let mut replica = Replica::start(&addr, &follower_path, opts()).unwrap();
    for i in 60..100 {
        client
            .sql(&format!(
                "APPEND INTO calls VALUES ({}, {:.1})",
                i % 5,
                (i % 7 + 1) as f64
            ))
            .unwrap();
    }

    // The leader's durable frontier per shard is the convergence target.
    let stats = client.stats().unwrap();
    assert!(stats.appends >= 100);
    assert!(stats.net_requests >= 100);
    assert!(stats.net_sessions >= 2, "client + follower sessions");

    // Wait until the follower applied everything the leader has durable
    // *right now*; only then is the heartbeat-based lag meaningful (it
    // drains to zero once the next heartbeat lands).
    let target = durable_frontier(&pipeline.handle());
    assert!(
        replica.wait_applied(&target, Duration::from_secs(30)),
        "follower never caught up: target {target:?}, applied {:?}",
        replica.applied_lsns()
    );
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while replica.replication_lag() != Some(0) {
        assert!(
            std::time::Instant::now() < deadline,
            "lag never drained: {:?}",
            replica.replication_lag()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Read-only serving: the same query over the follower's own listener
    // answers with the leader's rows.
    let ro_addr = replica.serve("127.0.0.1:0").unwrap().to_string();
    let mut ro = Client::connect(&ro_addr).unwrap();
    let rows = match ro.sql("SELECT * FROM totals").unwrap() {
        RemoteOutcome::Rows(rows) => rows,
        other => panic!("expected rows, got {other:?}"),
    };
    assert_eq!(rows.len(), 5);
    let ro_stats = ro.stats().unwrap();
    assert_eq!(ro_stats.replication_lag, Some(0));
    assert!(ro_stats.follower_applied_lsn.unwrap_or(0) > 0);
    assert!(ro_stats.net_shipped_bytes > 0);

    // Writes are refused on the follower.
    assert!(ro.sql("APPEND INTO calls VALUES (1, 1.0)").is_err());

    // Snapshot equality at the same applied lsns: quiesce the leader
    // (shut the pipeline down), then compare view snapshots directly.
    ro.goodbye();
    client.goodbye();
    server.stop();
    let leader_db = pipeline.shutdown();
    let follower_db = replica.stop().unwrap();
    assert_eq!(
        follower_db.db().snapshot_views(),
        leader_db.snapshot_views()
    );

    // The follower's query surface agrees with the leader's.
    assert_eq!(
        follower_db.db().query_view("totals").unwrap(),
        leader_db.query_view("totals").unwrap()
    );
    assert_eq!(
        follower_db
            .db()
            .query_view_key("totals", &[Value::Int(3)])
            .unwrap(),
        leader_db
            .query_view_key("totals", &[Value::Int(3)])
            .unwrap()
    );
}

#[test]
fn follower_restart_over_tcp_resumes() {
    let n = shards();
    let dir = TempDir::new("chronicle-net-resume");
    let leader_path = dir.path().join("leader");
    let follower_path = dir.path().join("follower");

    let db = ShardedDb::open_with(&leader_path, n, opts()).unwrap();
    let pipeline = ShardedPipeline::start(db, 64);
    let server = Server::start(pipeline.handle(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let mut client = Client::connect(&addr).unwrap();
    client.sql("CREATE GROUP g").unwrap();
    client
        .sql("CREATE CHRONICLE c (sn SEQ, x INT) IN GROUP g")
        .unwrap();
    client
        .sql("CREATE VIEW v AS SELECT x, COUNT(*) AS cnt FROM c GROUP BY x")
        .unwrap();
    for i in 0..30 {
        client
            .sql(&format!("APPEND INTO c VALUES ({})", i % 3))
            .unwrap();
    }

    // First attachment, full catch-up, then detach.
    let replica = Replica::start(&addr, &follower_path, opts()).unwrap();
    let target = durable_frontier(&pipeline.handle());
    assert!(
        replica.wait_applied(&target, Duration::from_secs(30)),
        "first catch-up stalled: target {target:?}, applied {:?}",
        replica.applied_lsns()
    );
    let f1 = replica.stop().unwrap();
    let applied_before = f1.applied_lsns();
    drop(f1);

    // Leader keeps writing while the follower is away.
    for i in 30..60 {
        client
            .sql(&format!("APPEND INTO c VALUES ({})", i % 3))
            .unwrap();
    }

    // Second attachment recovers locally and resumes from its watermark.
    let replica = Replica::start(&addr, &follower_path, opts()).unwrap();
    let target = durable_frontier(&pipeline.handle());
    assert!(
        replica.wait_applied(&target, Duration::from_secs(30)),
        "resume stalled: target {target:?}, applied {:?}",
        replica.applied_lsns()
    );
    let f2 = replica.stop().unwrap();
    assert!(f2
        .applied_lsns()
        .iter()
        .zip(&applied_before)
        .all(|(now, before)| now >= before));

    client.goodbye();
    server.stop();
    let leader_db = pipeline.shutdown();
    assert_eq!(f2.db().snapshot_views(), leader_db.snapshot_views());
}
