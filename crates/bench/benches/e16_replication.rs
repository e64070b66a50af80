//! E16 — follower catch-up over WAL shipping.
//!
//! A leader accumulates a durable WAL (two shards, small segments so the
//! chain has several sealed segments); a cold follower then pulls the
//! whole thing through the `Shipper` cursor machinery — the exact code
//! path the TCP server drives, minus the socket — persisting it
//! byte-identically and replaying it through the recovery path. The
//! timed region is what a freshly started `Replica` does between connect
//! and lag 0. Expected: catch-up time linear in shipped WAL bytes, and
//! the follower's views byte-identical to the leader's afterwards.

use chronicle_bench::timer::{BenchmarkId, Criterion, Throughput};
use chronicle_bench::{criterion_group, criterion_main};

use chronicle_db::pipeline::ShardedPipeline;
use chronicle_db::{shard_of_group, DurabilityOptions, FollowerDb, ShardedDb};
use chronicle_net::{ShipEvent, Shipper, DEFAULT_CHUNK};
use chronicle_testkit::TempDir;
use chronicle_types::{Chronon, Value};

const SHARDS: usize = 2;

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        segment_bytes: 64 << 10,
        fsync: true,
        ..Default::default()
    }
}

/// Two group names on distinct shards mod 2, so both shards carry WAL.
fn group_names() -> Vec<String> {
    let mut names = Vec::new();
    let mut taken = [false; SHARDS];
    let mut i = 0usize;
    while names.len() < SHARDS {
        let cand = format!("g{i}");
        let slot = shard_of_group(&cand, SHARDS);
        if !taken[slot] {
            taken[slot] = true;
            names.push(cand);
        }
        i += 1;
    }
    names
}

/// A leader with `appends` durable appends spread over both shards.
fn build_leader(root: &std::path::Path, appends: usize) -> ShardedDb {
    let mut db = ShardedDb::open_with(root, SHARDS, opts()).unwrap();
    for g in group_names() {
        db.execute(&format!("CREATE GROUP {g}")).unwrap();
        db.execute(&format!(
            "CREATE CHRONICLE {g}_c (sn SEQ, acct INT, amount FLOAT) IN GROUP {g}"
        ))
        .unwrap();
        db.execute(&format!(
            "CREATE VIEW {g}_sum AS SELECT acct, SUM(amount) AS total FROM {g}_c GROUP BY acct"
        ))
        .unwrap();
    }
    let pipeline = ShardedPipeline::start(db, 64);
    let handle = pipeline.handle();
    std::thread::scope(|scope| {
        for g in group_names() {
            let handle = handle.clone();
            scope.spawn(move || {
                let chron = format!("{g}_c");
                for i in 0..appends / SHARDS {
                    handle
                        .append_nowait(
                            &chron,
                            Chronon(i as i64 + 1),
                            vec![vec![
                                Value::Int((i % 16) as i64),
                                Value::Float(i as f64 % 9.0),
                            ]],
                        )
                        .unwrap();
                }
            });
        }
    });
    pipeline.shutdown()
}

/// One cold catch-up: ship everything, return (records applied, bytes).
fn catch_up(db: &ShardedDb) -> (u64, u64) {
    let tmp = TempDir::new("e16-follower");
    let mut follower = FollowerDb::open_with(tmp.path(), SHARDS, opts()).unwrap();
    let mut shipper = Shipper::new(&follower.applied_lsns(), DEFAULT_CHUNK);
    let mut bytes = 0u64;
    loop {
        let caught_up = shipper
            .pump(db, &mut |ev| match ev {
                ShipEvent::Start { shard, first_lsn } => follower.begin_segment(shard, first_lsn),
                ShipEvent::Bytes {
                    shard,
                    offset,
                    bytes: chunk,
                    ..
                } => {
                    bytes += chunk.len() as u64;
                    follower.ingest(shard, offset, &chunk).map(|_| ())
                }
                ShipEvent::Seal { shard, first_lsn } => follower.seal_segment(shard, first_lsn),
            })
            .unwrap();
        if caught_up {
            break;
        }
    }
    assert_eq!(
        follower.db().snapshot_views(),
        db.snapshot_views(),
        "caught-up follower must mirror the leader"
    );
    (follower.applied_lsns().iter().sum(), bytes)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_replication");
    group.sample_size(5);
    for &appends in &[2_000usize, 8_000] {
        let tmp = TempDir::new("e16-leader");
        let db = build_leader(tmp.path(), appends);
        group.throughput(Throughput::Elements(appends as u64));
        let mut records = 0u64;
        let mut bytes = 0u64;
        group.bench_with_input(BenchmarkId::new("catch_up", appends), &appends, |b, _| {
            b.iter(|| {
                let (r, by) = catch_up(&db);
                records = r;
                bytes = by;
            });
        });
        println!("    appends={appends}: {records} records applied, {bytes} WAL bytes shipped");
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
