//! E14 — crash-recovery time vs chronicle length, and group-commit
//! throughput.
//!
//! The durability claim mirrors the paper's maintenance claim (Prop. 3.1):
//! just as per-append maintenance must not depend on |C|, recovery must
//! not either. A checkpoint persists the views (O(|V|)); recovery loads it
//! and replays only the WAL tail. With the tail length fixed, recovery
//! time must stay flat while the pre-checkpoint chronicle grows 16×.
//!
//! The second group measures the group-commit pipeline: concurrent
//! producers submitting durable appends share one WAL flush per burst, so
//! aggregate throughput should not collapse as producers are added.

use chronicle_bench::timer::{BenchmarkId, Criterion, Throughput};
use chronicle_bench::{criterion_group, criterion_main};

use chronicle_db::pipeline::ShardedPipeline;
use chronicle_db::ChronicleDb;
use chronicle_testkit::TempDir;
use chronicle_types::{Chronon, Value};
use chronicle_workload::AtmGen;

/// WAL-tail records left beyond the checkpoint in every recovery case.
const TAIL: usize = 1_000;

fn apply_ddl(db: &mut ChronicleDb) {
    db.execute("CREATE CHRONICLE atm (sn SEQ, acct INT, amount FLOAT)")
        .unwrap();
    db.execute("CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM atm GROUP BY acct")
        .unwrap();
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_recovery");
    group.sample_size(10);
    for &n in &[10_000usize, 40_000, 160_000] {
        // Build a database with |C| = n + TAIL appends, checkpointed at n:
        // recovery always replays exactly TAIL records.
        let tmp = TempDir::new("e14-recovery");
        {
            let mut db = ChronicleDb::open(tmp.path()).unwrap();
            apply_ddl(&mut db);
            let mut gen = AtmGen::new(1, 100);
            for i in 0..n {
                let row = gen.next_row();
                db.append(
                    "atm",
                    Chronon(i as i64),
                    &[vec![row[0].clone(), row[1].clone()]],
                )
                .unwrap();
            }
            db.checkpoint().unwrap();
            for i in 0..TAIL {
                let row = gen.next_row();
                db.append(
                    "atm",
                    Chronon((n + i) as i64),
                    &[vec![row[0].clone(), row[1].clone()]],
                )
                .unwrap();
            }
        }
        group.bench_with_input(BenchmarkId::new("open_fixed_tail", n), &n, |b, _| {
            b.iter(|| {
                let db = ChronicleDb::open(tmp.path()).unwrap();
                assert_eq!(db.stats().recovery_replayed_records as usize, TAIL);
                db
            });
        });
    }
    group.finish();
}

fn bench_group_commit(c: &mut Criterion) {
    const OPS: usize = 2_000;
    let mut group = c.benchmark_group("e14_group_commit");
    group.sample_size(5);
    group.throughput(Throughput::Elements(OPS as u64));
    for &producers in &[1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("durable_producers", producers),
            &producers,
            |b, &p| {
                b.iter(|| {
                    let tmp = TempDir::new("e14-gc");
                    let mut db = ChronicleDb::open(tmp.path()).unwrap();
                    apply_ddl(&mut db);
                    let pipe = ShardedPipeline::start(db.into(), 256);
                    let mut joins = Vec::new();
                    for t in 0..p {
                        let h = pipe.handle();
                        joins.push(std::thread::spawn(move || {
                            for _ in 0..OPS / p {
                                // Chronons repeat across producers: group
                                // monotonicity is on sequence numbers, and
                                // interleaved threads must not step the
                                // clock backwards.
                                h.append(
                                    "atm",
                                    Chronon(0),
                                    vec![vec![Value::Int(t as i64), Value::Float(1.0)]],
                                )
                                .unwrap();
                            }
                        }));
                    }
                    for j in joins {
                        j.join().unwrap();
                    }
                    let db = pipe.shutdown();
                    // Group commit: far fewer flushes than durable records.
                    assert!(db.stats().wal_flushes <= db.stats().wal_records);
                    db.stats().wal_flushes
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_recovery, bench_group_commit);
criterion_main!(benches);
