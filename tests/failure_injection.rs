//! Failure injection: every documented error path produces a typed error
//! and leaves the database in a usable, consistent state.
//!
//! The second half of the suite injects crashes into the durability layer
//! — torn final records, truncated segments, bit-flipped CRCs, a crash
//! between checkpoint publication and WAL truncation — and checks the
//! recovery invariant: reopening either reproduces exactly a prefix of the
//! acknowledged state, or fails loudly with a typed `Corruption` error.
//! It never silently recovers wrong state.
//!
//! The final modules sweep *bit rot* — a single flipped byte at EVERY
//! offset of a sealed WAL segment and of the newest checkpoint image, in
//! both topologies — and pin the salvage contract: under
//! [`RecoveryPolicy::Strict`] every flip is refused loudly, while under
//! [`RecoveryPolicy::Salvage`] the open recovers the maximal acknowledged
//! prefix, quarantines (never deletes) every untrusted file, and reports
//! the dropped LSN range exactly.

use chronicle::prelude::*;

fn db() -> ChronicleDb {
    let mut db = ChronicleDb::new();
    db.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)")
        .unwrap();
    db.execute("CREATE RELATION r (k INT, w FLOAT, PRIMARY KEY (k))")
        .unwrap();
    db.execute("CREATE VIEW s AS SELECT k, SUM(v) AS t FROM c GROUP BY k")
        .unwrap();
    db
}

#[test]
fn non_monotonic_append_rejected_and_state_intact() {
    let mut d = db();
    d.execute("APPEND INTO c VALUES (5, 1, 1.0)").unwrap(); // explicit SN 5
    let err = d.execute("APPEND INTO c VALUES (3, 1, 1.0)").unwrap_err();
    assert!(matches!(err, ChronicleError::NonMonotonicAppend { .. }));
    // No partial effects: the view still reflects exactly one append.
    assert_eq!(
        d.query_view_key("s", &[Value::Int(1)])
            .unwrap()
            .unwrap()
            .get(1),
        &Value::Float(1.0)
    );
    // The database keeps working.
    d.execute("APPEND INTO c VALUES (1, 2.0)").unwrap();
    assert_eq!(
        d.query_view_key("s", &[Value::Int(1)])
            .unwrap()
            .unwrap()
            .get(1),
        &Value::Float(3.0)
    );
}

#[test]
fn schema_violations_rejected() {
    let mut d = db();
    // Wrong arity.
    assert!(matches!(
        d.execute("APPEND INTO c VALUES (1)").unwrap_err(),
        ChronicleError::ArityMismatch { .. }
    ));
    // Wrong type.
    assert!(d.execute("APPEND INTO c VALUES ('nope', 1.0)").is_err());
    // NULL sequencing attribute (explicit full-arity row).
    assert!(d.execute("APPEND INTO c VALUES (NULL, 1, 1.0)").is_err());
    // Relation key violation.
    d.execute("INSERT INTO r VALUES (1, 1.0)").unwrap();
    assert!(matches!(
        d.execute("INSERT INTO r VALUES (1, 2.0)").unwrap_err(),
        ChronicleError::KeyViolation { .. }
    ));
}

#[test]
fn unknown_objects_rejected() {
    let mut d = db();
    assert!(matches!(
        d.execute("APPEND INTO ghost VALUES (1, 1.0)").unwrap_err(),
        ChronicleError::NotFound {
            kind: "chronicle",
            ..
        }
    ));
    assert!(matches!(
        d.execute("SELECT * FROM ghost").unwrap_err(),
        ChronicleError::NotFound { .. }
    ));
    assert!(matches!(
        d.execute("DROP VIEW ghost").unwrap_err(),
        ChronicleError::NotFound { kind: "view", .. }
    ));
    assert!(d.execute("CREATE VIEW v AS SELECT ghost FROM c").is_err());
}

#[test]
fn duplicate_names_rejected() {
    let mut d = db();
    assert!(matches!(
        d.execute("CREATE CHRONICLE c (sn SEQ, x INT)").unwrap_err(),
        ChronicleError::AlreadyExists { .. }
    ));
    assert!(matches!(
        d.execute("CREATE RELATION r (x INT)").unwrap_err(),
        ChronicleError::AlreadyExists { .. }
    ));
    assert!(matches!(
        d.execute("CREATE VIEW s AS SELECT k FROM c").unwrap_err(),
        ChronicleError::AlreadyExists { .. }
    ));
}

#[test]
fn parse_errors_carry_position_and_hint() {
    let mut d = db();
    let err = d
        .execute("CREATE VIEW v AS SELECT k FROM c WHERE")
        .unwrap_err();
    assert!(matches!(err, ChronicleError::Parse { .. }));
    let err = d
        .execute("CREATE VIEW v AS SELECT k, COUNT(*) AS n FROM c WHERE k = 1 AND v > 2 OR k = 3 GROUP BY k")
        .unwrap_err();
    assert!(err.to_string().contains("Def. 4.1"), "{err}");
}

#[test]
fn chronicle_as_relation_and_vice_versa_rejected() {
    let mut d = db();
    // INSERT into a chronicle is not a thing — APPEND is.
    assert!(d.execute("INSERT INTO c VALUES (1, 1.0)").is_err());
    // APPEND into a relation is not a thing.
    assert!(d.execute("APPEND INTO r VALUES (1, 1.0)").is_err());
    // A relation schema cannot carry a SEQ column.
    assert!(d.execute("CREATE RELATION bad (sn SEQ, x INT)").is_err());
    // A chronicle schema must carry exactly one SEQ column.
    assert!(d.execute("CREATE CHRONICLE bad (x INT, y INT)").is_err());
}

#[test]
fn retroactive_updates_rejected_via_temporal_api() {
    let mut d = db();
    d.execute("APPEND INTO c VALUES (1, 1.0)").unwrap();
    let g = d.catalog().group_id("default").unwrap();
    let hw = d.catalog().group(g).high_water();
    let rid = d.catalog().relation_id("r").unwrap();
    let err = d
        .catalog_mut()
        .relation_mut(rid)
        .insert_effective(
            Tuple::new(vec![Value::Int(9), Value::Float(1.0)]),
            SeqNo(1), // effective in the past
            hw,
        )
        .unwrap_err();
    assert!(matches!(err, ChronicleError::RetroactiveUpdate { .. }));
    // The proactive path still works afterwards.
    d.execute("INSERT INTO r VALUES (9, 1.0)").unwrap();
}

#[test]
fn cross_group_operations_rejected() {
    let mut d = ChronicleDb::new();
    d.execute("CREATE GROUP g1").unwrap();
    d.execute("CREATE GROUP g2").unwrap();
    d.execute("CREATE CHRONICLE a (sn SEQ, x INT) IN GROUP g1")
        .unwrap();
    d.execute("CREATE CHRONICLE b (sn SEQ, x INT) IN GROUP g2")
        .unwrap();
    let a = d.catalog().chronicle_id("a").unwrap();
    let b = d.catalog().chronicle_id("b").unwrap();
    let ea = chronicle::algebra::CaExpr::chronicle(d.catalog().chronicle(a));
    let eb = chronicle::algebra::CaExpr::chronicle(d.catalog().chronicle(b));
    assert!(matches!(
        ea.clone().union(eb.clone()).unwrap_err(),
        ChronicleError::CrossGroupOperation { .. }
    ));
    assert!(matches!(
        ea.clone().diff(eb.clone()).unwrap_err(),
        ChronicleError::CrossGroupOperation { .. }
    ));
    assert!(matches!(
        ea.join_seq(eb).unwrap_err(),
        ChronicleError::CrossGroupOperation { .. }
    ));
}

#[test]
fn failed_view_creation_rolls_back() {
    let mut d = ChronicleDb::new();
    d.execute("CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)")
        .unwrap(); // RETAIN NONE
    d.execute("APPEND INTO c VALUES (1, 1.0)").unwrap();
    // Bootstrapping from unretained history fails...
    let err = d
        .execute("CREATE VIEW s AS SELECT k, SUM(v) AS t FROM c GROUP BY k")
        .unwrap_err();
    assert!(matches!(err, ChronicleError::ChronicleNotStored { .. }));
    // ...and leaves no half-registered view behind: the name is reusable
    // and appends do not crash on a phantom view.
    assert!(d.query_view("s").is_err());
    d.execute("APPEND INTO c VALUES (2, 1.0)").unwrap();
}

#[test]
fn update_delete_require_key_filter() {
    let mut d = db();
    d.execute("INSERT INTO r VALUES (1, 1.0)").unwrap();
    assert!(d.execute("UPDATE r SET w = 2.0 WHERE w = 1.0").is_err());
    assert!(d.execute("DELETE FROM r WHERE w = 1.0").is_err());
    d.execute("UPDATE r SET w = 2.0 WHERE k = 1").unwrap();
    d.execute("DELETE FROM r WHERE k = 1").unwrap();
}

#[test]
fn sql_type_mismatch_in_where_rejected() {
    let mut d = db();
    let err = d
        .execute("CREATE VIEW v AS SELECT k, COUNT(*) AS n FROM c WHERE v = 'text' GROUP BY k")
        .unwrap_err();
    assert!(matches!(err, ChronicleError::TypeMismatch { .. }));
}

#[test]
fn empty_batch_append_is_harmless() {
    let mut d = db();
    let out = d.append("c", Chronon(1), &[]).unwrap();
    assert_eq!(out.seq, SeqNo(1));
    assert!(d.query_view("s").unwrap().is_empty());
}

// ---- WAL crash-point injection --------------------------------------------

mod wal_crash_points {
    use super::*;
    use chronicle::simkit::{SimFs, Vfs};
    use chronicle_testkit::TempDir;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    const DDL: &[&str] = &[
        "CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)",
        "CREATE VIEW s AS SELECT k, SUM(v) AS t, COUNT(*) AS n FROM c GROUP BY k",
    ];

    /// Open a durable db, run the DDL, and checkpoint so the WAL from here
    /// on contains only append records — the crash-point sweeps below then
    /// map 1:1 onto acknowledged appends.
    fn durable_db(path: &Path) -> ChronicleDb {
        let mut d = ChronicleDb::open(path).unwrap();
        for stmt in DDL {
            d.execute(stmt).unwrap();
        }
        d.checkpoint().unwrap();
        d
    }

    /// Per-acknowledged-append oracle: `snaps[i]` is the byte-exact view
    /// state after `i` appends.
    fn oracle_snapshots(n: usize) -> Vec<Vec<(String, Vec<u8>)>> {
        let mut oracle = ChronicleDb::new();
        for stmt in DDL {
            oracle.execute(stmt).unwrap();
        }
        let mut snaps = vec![oracle.snapshot_views()];
        for i in 0..n {
            append_nth(&mut oracle, i);
            snaps.push(oracle.snapshot_views());
        }
        snaps
    }

    fn append_nth(d: &mut ChronicleDb, i: usize) {
        d.append(
            "c",
            Chronon(i as i64),
            &[vec![Value::Int((i % 3) as i64), Value::Float(i as f64)]],
        )
        .unwrap();
    }

    /// WAL segment files at `db_dir`, sorted by name (= by first LSN).
    fn segments(db_dir: &Path) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = fs::read_dir(db_dir.join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        v.sort();
        v
    }

    fn copy_dir(src: &Path, dst: &Path) {
        fs::create_dir_all(dst).unwrap();
        for e in fs::read_dir(src).unwrap() {
            let e = e.unwrap();
            let to = dst.join(e.file_name());
            if e.metadata().unwrap().is_dir() {
                copy_dir(&e.path(), &to);
            } else {
                fs::copy(e.path(), to).unwrap();
            }
        }
    }

    /// Crash-point sweep over the torn tail: cut the final WAL segment at
    /// EVERY byte length and reopen. Each cut must recover exactly the
    /// acknowledged prefix that survived intact — byte-identical views —
    /// with the torn suffix discarded, never an error, never extra state.
    ///
    /// Runs over [`SimFs`]: the whole O(file²) sweep is in-memory work
    /// with no tempdir churn, so every byte stays covered on every
    /// `cargo test`. `torn_final_record_real_disk_smoke` keeps the same
    /// fault family exercised through the real `std::fs` path.
    #[test]
    fn torn_final_record_recovers_exact_acknowledged_prefix() {
        const APPENDS: usize = 12;
        let sim = SimFs::new(0x70c4);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/torn");
        {
            let mut d =
                ChronicleDb::open_with_vfs(Arc::clone(&vfs), root, DurabilityOptions::default())
                    .unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            d.checkpoint().unwrap(); // WAL tail now holds only appends
            for i in 0..APPENDS {
                append_nth(&mut d, i);
            }
        }
        let snaps = oracle_snapshots(APPENDS);
        let segs: Vec<PathBuf> = sim
            .live_files()
            .into_iter()
            .filter(|p| {
                p.starts_with(root.join("wal")) && p.extension().is_some_and(|x| x == "seg")
            })
            .collect();
        assert_eq!(segs.len(), 1, "workload fits one segment");
        let full = sim.peek(&segs[0]).unwrap();

        for cut in 0..=full.len() {
            // An independent copy of the disk with the segment cut at
            // `cut` bytes — exactly what a torn write leaves behind.
            let torn = sim.fork();
            torn.install(&segs[0], &full[..cut]);
            let d = ChronicleDb::open_with_vfs(Arc::new(torn), root, DurabilityOptions::default())
                .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got: {e}"));
            let recovered = d.stats().appends as usize;
            assert!(recovered <= APPENDS);
            assert_eq!(
                d.snapshot_views(),
                snaps[recovered],
                "cut at byte {cut}: recovered state is not the acknowledged prefix"
            );
        }
    }

    /// Real-disk smoke case for the torn-tail family: a few representative
    /// cut points (bare header, mid-record, one byte short of intact)
    /// through actual `std::fs` I/O. The exhaustive per-byte sweep runs on
    /// `SimFs` above.
    #[test]
    fn torn_final_record_real_disk_smoke() {
        const APPENDS: usize = 6;
        let tmp = TempDir::new("chronicle-torn");
        {
            let mut d = durable_db(tmp.path());
            for i in 0..APPENDS {
                append_nth(&mut d, i);
            }
        }
        let snaps = oracle_snapshots(APPENDS);
        let segs = segments(tmp.path());
        assert_eq!(segs.len(), 1, "workload fits one segment");
        let full = fs::read(&segs[0]).unwrap();

        for cut in [16, full.len() / 2, full.len() - 1] {
            let scratch = TempDir::new("chronicle-torn-cut");
            copy_dir(tmp.path(), scratch.path());
            let seg = segments(scratch.path()).pop().unwrap();
            fs::write(&seg, &full[..cut]).unwrap();

            let d = ChronicleDb::open(scratch.path())
                .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got: {e}"));
            let recovered = d.stats().appends as usize;
            assert!(recovered <= APPENDS);
            assert_eq!(
                d.snapshot_views(),
                snaps[recovered],
                "cut at byte {cut}: recovered state is not the acknowledged prefix"
            );
        }
    }

    /// A truncated (torn) frame anywhere but the final segment is not a
    /// crash artifact — appends after it were acknowledged from later
    /// segments. Recovery must refuse loudly.
    #[test]
    fn truncated_non_final_segment_fails_loudly() {
        let tmp = TempDir::new("chronicle-truncseg");
        let opts = DurabilityOptions {
            segment_bytes: 256, // force several segments
            ..Default::default()
        };
        {
            let mut d = ChronicleDb::open_with(tmp.path(), opts).unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            for i in 0..40 {
                append_nth(&mut d, i);
            }
        }
        let segs = segments(tmp.path());
        assert!(segs.len() >= 3, "need several segments, got {}", segs.len());
        let victim = &segs[1];
        let len = fs::metadata(victim).unwrap().len();
        fs::OpenOptions::new()
            .write(true)
            .open(victim)
            .unwrap()
            .set_len(len - 7)
            .unwrap();
        assert!(matches!(
            ChronicleDb::open_with(tmp.path(), opts).unwrap_err(),
            ChronicleError::Corruption { .. }
        ));
    }

    /// A CRC-detected bit flip in the final segment is indistinguishable
    /// from a torn multi-block write, so recovery truncates to the intact
    /// prefix — always a state that existed, never garbage. The same flip
    /// in a non-final segment cannot be a crash artifact and fails loudly.
    #[test]
    fn bitflip_final_segment_truncates_to_prefix() {
        const APPENDS: usize = 10;
        let tmp = TempDir::new("chronicle-bitflip");
        {
            let mut d = durable_db(tmp.path());
            for i in 0..APPENDS {
                append_nth(&mut d, i);
            }
        }
        let snaps = oracle_snapshots(APPENDS);
        let seg = segments(tmp.path()).pop().unwrap();
        let full = fs::read(&seg).unwrap();

        // Flip a byte near the end (inside the last record's body) and one
        // a third of the way in (records follow it): each must yield
        // exactly the acknowledged prefix preceding the damage.
        for (label, at) in [("tail", full.len() - 3), ("mid", full.len() / 3)] {
            let scratch = TempDir::new("chronicle-bitflip-case");
            copy_dir(tmp.path(), scratch.path());
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;
            fs::write(segments(scratch.path()).pop().unwrap(), &bytes).unwrap();
            let d = ChronicleDb::open(scratch.path()).unwrap();
            let recovered = d.stats().appends as usize;
            assert!(recovered < APPENDS, "{label}: the flipped record must go");
            assert_eq!(
                d.snapshot_views(),
                snaps[recovered],
                "{label}: recovered state is not an acknowledged prefix"
            );
        }
    }

    /// The same CRC flip in a non-final segment: acknowledged records
    /// follow it in later segments, so prefix-truncation would lose them.
    /// Recovery must refuse loudly.
    #[test]
    fn bitflip_non_final_segment_fails_loudly() {
        let tmp = TempDir::new("chronicle-bitflip-seg");
        let opts = DurabilityOptions {
            segment_bytes: 256,
            ..Default::default()
        };
        {
            let mut d = ChronicleDb::open_with(tmp.path(), opts).unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            for i in 0..40 {
                append_nth(&mut d, i);
            }
        }
        let segs = segments(tmp.path());
        assert!(segs.len() >= 3, "need several segments, got {}", segs.len());
        let victim = &segs[1];
        let mut bytes = fs::read(victim).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(victim, bytes).unwrap();
        assert!(matches!(
            ChronicleDb::open_with(tmp.path(), opts).unwrap_err(),
            ChronicleError::Corruption { .. }
        ));
    }

    /// Crash between checkpoint publication and WAL truncation: the old
    /// segments (all ≤ checkpoint LSN) are still on disk at reopen. Their
    /// records must be validated but skipped, not replayed twice.
    #[test]
    fn crash_between_checkpoint_and_truncation_is_harmless() {
        const APPENDS: usize = 20;
        let tmp = TempDir::new("chronicle-ckptcrash");
        let stale = TempDir::new("chronicle-ckptcrash-stale");
        {
            let mut d = durable_db(tmp.path());
            for i in 0..APPENDS {
                append_nth(&mut d, i);
            }
            // Save the pre-checkpoint WAL, checkpoint (which truncates it),
            // then put the stale segments back: exactly the on-disk state
            // of a crash after publish, before truncation.
            copy_dir(&tmp.path().join("wal"), stale.path());
            d.checkpoint().unwrap();
        }
        for e in fs::read_dir(stale.path()).unwrap() {
            let e = e.unwrap();
            let dst = tmp.path().join("wal").join(e.file_name());
            if !dst.exists() {
                fs::copy(e.path(), dst).unwrap();
            }
        }
        let snaps = oracle_snapshots(APPENDS);
        let d = ChronicleDb::open(tmp.path()).unwrap();
        assert_eq!(d.stats().recovery_replayed_records, 0);
        assert_eq!(d.snapshot_views(), snaps[APPENDS]);
    }

    /// A leftover `.tmp` from a checkpoint that crashed mid-write must be
    /// ignored, whatever it contains.
    #[test]
    fn leftover_tmp_checkpoint_ignored() {
        const APPENDS: usize = 5;
        let tmp = TempDir::new("chronicle-tmpckpt");
        {
            let mut d = durable_db(tmp.path());
            for i in 0..APPENDS {
                append_nth(&mut d, i);
            }
        }
        fs::write(
            tmp.path().join("ckpt-99999999999999999999.tmp"),
            b"half-written garbage",
        )
        .unwrap();
        let snaps = oracle_snapshots(APPENDS);
        let d = ChronicleDb::open(tmp.path()).unwrap();
        assert_eq!(d.snapshot_views(), snaps[APPENDS]);
    }

    /// If the only valid checkpoint is destroyed after the WAL it covered
    /// was truncated, the log has a real gap. Recovery must fail loudly —
    /// quietly starting from a partial tail would fabricate state.
    #[test]
    fn destroyed_checkpoint_with_truncated_wal_fails_loudly() {
        let tmp = TempDir::new("chronicle-badckpt");
        {
            let mut d = durable_db(tmp.path());
            for i in 0..20 {
                append_nth(&mut d, i);
            }
            d.checkpoint().unwrap();
            append_nth(&mut d, 20); // a tail exists beyond the checkpoint
        }
        // Corrupt every checkpoint file in place.
        for e in fs::read_dir(tmp.path()).unwrap() {
            let e = e.unwrap();
            if e.path().extension().is_some_and(|x| x == "ckpt") {
                let mut bytes = fs::read(e.path()).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xFF;
                fs::write(e.path(), bytes).unwrap();
            }
        }
        assert!(matches!(
            ChronicleDb::open(tmp.path()).unwrap_err(),
            ChronicleError::Corruption { .. }
        ));
    }
}

// ---- Sharded WAL crash-point injection ------------------------------------

mod sharded_crash_points {
    use super::*;
    use chronicle::db::{shard_of_group, ShardedDb};
    use chronicle::simkit::{SimFs, Vfs};
    use chronicle_testkit::TempDir;
    use std::fs;
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    const SHARDS: usize = 3;
    const GROUPS: usize = 6;
    const APPENDS: usize = 12;

    fn ddl_for_group(g: usize) -> [String; 3] {
        [
            format!("CREATE GROUP g{g}"),
            format!("CREATE CHRONICLE c{g} (sn SEQ, k INT, v FLOAT) IN GROUP g{g}"),
            format!("CREATE VIEW v{g} AS SELECT k, SUM(v) AS t FROM c{g} GROUP BY k"),
        ]
    }

    fn ddl() -> Vec<String> {
        (0..GROUPS).flat_map(ddl_for_group).collect()
    }

    /// The global append history: round-robin over the groups, chronon =
    /// global index (monotone within every group).
    fn history() -> Vec<(usize, i64, i64, f64)> {
        (0..APPENDS)
            .map(|i| (i % GROUPS, i as i64 + 1, (i % 3) as i64, i as f64))
            .collect()
    }

    fn groups_of(shard: usize) -> Vec<usize> {
        (0..GROUPS)
            .filter(|g| shard_of_group(&format!("g{g}"), SHARDS) == shard)
            .collect()
    }

    /// Per-shard oracle: `snaps[k]` is the (sorted) view state of `shard`
    /// after the first `k` appends destined to it, replayed through a
    /// plain in-memory engine holding only that shard's groups.
    fn shard_oracle(shard: usize) -> Vec<Vec<(String, Vec<u8>)>> {
        let groups = groups_of(shard);
        let mut db = ChronicleDb::new();
        for stmt in groups.iter().flat_map(|g| ddl_for_group(*g)) {
            db.execute(&stmt).unwrap();
        }
        let sorted = |db: &ChronicleDb| {
            let mut s = db.snapshot_views();
            s.sort();
            s
        };
        let mut snaps = vec![sorted(&db)];
        for (g, at, k, v) in history() {
            if !groups.contains(&g) {
                continue;
            }
            db.append(
                &format!("c{g}"),
                Chronon(at),
                &[vec![Value::Int(k), Value::Float(v)]],
            )
            .unwrap();
            snaps.push(sorted(&db));
        }
        snaps
    }

    fn segments(shard_dir: &Path) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = fs::read_dir(shard_dir.join("wal"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "seg"))
            .collect();
        v.sort();
        v
    }

    fn copy_dir(src: &Path, dst: &Path) {
        fs::create_dir_all(dst).unwrap();
        for e in fs::read_dir(src).unwrap() {
            let e = e.unwrap();
            let to = dst.join(e.file_name());
            if e.metadata().unwrap().is_dir() {
                copy_dir(&e.path(), &to);
            } else {
                fs::copy(e.path(), to).unwrap();
            }
        }
    }

    /// Torn-write sweep, per shard: cut the victim shard's final WAL
    /// segment at every byte and reopen the whole sharded database. The
    /// victim must recover exactly the acknowledged prefix of the appends
    /// destined to it; every other shard must recover its full state —
    /// shard failure domains are independent.
    ///
    /// Runs over [`SimFs`] (every victim × every byte, in memory);
    /// `torn_shard_tail_real_disk_smoke` keeps the family covered through
    /// real `std::fs` I/O.
    #[test]
    fn torn_shard_tail_recovers_prefix_and_leaves_peers_intact() {
        let sim = SimFs::new(0x54a2d);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/sharded-torn");
        {
            let mut d =
                ShardedDb::open_with_vfs(Arc::clone(&vfs), root, SHARDS, Default::default())
                    .unwrap();
            for stmt in ddl() {
                d.execute(&stmt).unwrap();
            }
            d.checkpoint().unwrap(); // WAL tails now hold only appends
            for (g, at, k, v) in history() {
                d.append(
                    &format!("c{g}"),
                    Chronon(at),
                    &[vec![Value::Int(k), Value::Float(v)]],
                )
                .unwrap();
            }
        }
        let oracles: Vec<_> = (0..SHARDS).map(shard_oracle).collect();
        for (s, oracle) in oracles.iter().enumerate() {
            assert!(
                oracle.len() > 1,
                "shard {s} owns no appends; grow GROUPS so every shard is exercised"
            );
        }

        for victim in 0..SHARDS {
            let wal_dir = root.join(format!("shard-{victim:03}")).join("wal");
            let segs: Vec<PathBuf> = sim
                .live_files()
                .into_iter()
                .filter(|p| p.starts_with(&wal_dir) && p.extension().is_some_and(|x| x == "seg"))
                .collect();
            assert_eq!(segs.len(), 1, "shard {victim}: workload fits one segment");
            let full = sim.peek(&segs[0]).unwrap();

            for cut in 0..=full.len() {
                let torn = sim.fork();
                torn.install(&segs[0], &full[..cut]);
                let d = ShardedDb::open_with_vfs(Arc::new(torn), root, SHARDS, Default::default())
                    .unwrap_or_else(|e| {
                        panic!("shard {victim} cut at byte {cut} must recover, got: {e}")
                    });
                for (s, oracle) in oracles.iter().enumerate() {
                    let mut got = d.shard(s).snapshot_views();
                    got.sort();
                    if s == victim {
                        let recovered = d.shard(s).stats().appends as usize;
                        assert!(recovered < oracle.len());
                        assert_eq!(
                            got, oracle[recovered],
                            "shard {victim} cut at byte {cut}: not the acknowledged prefix"
                        );
                    } else {
                        assert_eq!(
                            got,
                            *oracle.last().unwrap(),
                            "shard {s} must be untouched by shard {victim}'s torn tail (cut {cut})"
                        );
                    }
                }
            }
        }
    }

    /// Real-disk smoke case for the sharded torn-tail family: one victim
    /// shard, three representative cut points, actual `std::fs` I/O.
    #[test]
    fn torn_shard_tail_real_disk_smoke() {
        let tmp = TempDir::new("chronicle-sharded-torn");
        {
            let mut d = ShardedDb::open(tmp.path(), SHARDS).unwrap();
            for stmt in ddl() {
                d.execute(&stmt).unwrap();
            }
            d.checkpoint().unwrap();
            for (g, at, k, v) in history() {
                d.append(
                    &format!("c{g}"),
                    Chronon(at),
                    &[vec![Value::Int(k), Value::Float(v)]],
                )
                .unwrap();
            }
        }
        let oracles: Vec<_> = (0..SHARDS).map(shard_oracle).collect();
        let victim = 0;
        let shard_dir = tmp.path().join(format!("shard-{victim:03}"));
        let segs = segments(&shard_dir);
        assert_eq!(segs.len(), 1, "shard {victim}: workload fits one segment");
        let full = fs::read(&segs[0]).unwrap();

        for cut in [16, full.len() / 2, full.len() - 1] {
            let scratch = TempDir::new("chronicle-sharded-torn-cut");
            copy_dir(tmp.path(), scratch.path());
            let seg = segments(&scratch.path().join(format!("shard-{victim:03}")))
                .pop()
                .unwrap();
            fs::write(&seg, &full[..cut]).unwrap();

            let d = ShardedDb::open(scratch.path(), SHARDS)
                .unwrap_or_else(|e| panic!("cut at byte {cut} must recover, got: {e}"));
            for (s, oracle) in oracles.iter().enumerate() {
                let mut got = d.shard(s).snapshot_views();
                got.sort();
                if s == victim {
                    let recovered = d.shard(s).stats().appends as usize;
                    assert!(recovered < oracle.len());
                    assert_eq!(got, oracle[recovered], "cut at byte {cut}");
                } else {
                    assert_eq!(got, *oracle.last().unwrap(), "peer shard {s} (cut {cut})");
                }
            }
        }
    }
}

// ---- Bit-rot sweeps: Strict refuses, Salvage recovers the maximal prefix ---

mod bit_rot_salvage {
    use super::*;
    use chronicle::simkit::{SimFs, Vfs};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    const DDL: &[&str] = &[
        "CREATE CHRONICLE c (sn SEQ, k INT, v FLOAT)",
        "CREATE VIEW s AS SELECT k, SUM(v) AS t, COUNT(*) AS n FROM c GROUP BY k",
    ];

    fn append_nth(d: &mut ChronicleDb, i: usize) {
        d.append(
            "c",
            Chronon(i as i64),
            &[vec![Value::Int((i % 3) as i64), Value::Float(i as f64)]],
        )
        .unwrap();
    }

    /// `snaps[i]` = byte-exact view state after `i` acknowledged appends.
    fn oracle_snapshots(n: usize) -> Vec<Vec<(String, Vec<u8>)>> {
        let mut oracle = ChronicleDb::new();
        for stmt in DDL {
            oracle.execute(stmt).unwrap();
        }
        let mut snaps = vec![oracle.snapshot_views()];
        for i in 0..n {
            append_nth(&mut oracle, i);
            snaps.push(oracle.snapshot_views());
        }
        snaps
    }

    /// Files under `dir` with extension `ext`, sorted by name.
    fn files_with_ext(sim: &SimFs, dir: &Path, ext: &str) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = sim
            .live_files()
            .into_iter()
            .filter(|p| p.starts_with(dir) && p.extension().is_some_and(|x| x == ext))
            .collect();
        v.sort();
        v
    }

    fn salvage_opts(base: DurabilityOptions) -> DurabilityOptions {
        DurabilityOptions {
            recovery: RecoveryPolicy::Salvage,
            ..base
        }
    }

    /// The salvage report of a single-topology open, which must exist and
    /// name only quarantined files that are really present on `fs`.
    fn report_of(d: &ChronicleDb, fs: &SimFs) -> SalvageReport {
        let sr = d.stats().salvage.clone().expect("salvage open reports");
        for path in sr
            .checkpoints_quarantined
            .iter()
            .chain(sr.segments_quarantined.iter().map(|q| &q.path))
        {
            assert!(
                fs.peek(path).is_some(),
                "report names quarantined file {} but nothing is there",
                path.display()
            );
        }
        sr
    }

    /// Sweep: flip one byte at EVERY offset of a sealed, non-final WAL
    /// segment. Acknowledged records live both inside the victim and in
    /// later segments, so no flip can be explained as a crash artifact.
    /// Strict must refuse every one; Salvage must land on exactly the
    /// acknowledged prefix preceding the damage, quarantine the victim and
    /// everything after it, and confess the dropped LSN range precisely.
    /// A second open of the salvaged disk must then be clean.
    #[test]
    fn rotted_sealed_segment_swept_per_byte() {
        const APPENDS: usize = 40;
        let sim = SimFs::new(0xb17_5e6);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/rot-seg");
        let opts = DurabilityOptions {
            segment_bytes: 256, // force several segments
            ..Default::default()
        };
        let floor = {
            let mut d = ChronicleDb::open_with_vfs(Arc::clone(&vfs), root, opts).unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            let floor = d.checkpoint().unwrap(); // WAL now holds only appends
            for i in 0..APPENDS {
                append_nth(&mut d, i);
            }
            floor
        };
        let last_lsn = floor + APPENDS as u64;
        let snaps = oracle_snapshots(APPENDS);
        let segs = files_with_ext(&sim, &root.join("wal"), "seg");
        assert!(segs.len() >= 3, "need several segments, got {}", segs.len());
        let victim = &segs[1];
        let full = sim.peek(victim).unwrap();

        for at in 0..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;

            // Strict: acknowledged records follow the damage, so the open
            // must refuse loudly whichever byte rotted.
            let rotten = sim.fork();
            rotten.install(victim, &bytes);
            let err = ChronicleDb::open_with_vfs(Arc::new(rotten), root, opts).unwrap_err();
            assert!(
                matches!(err, ChronicleError::Corruption { .. }),
                "byte {at}: strict open must refuse, got: {err}"
            );

            // Salvage: maximal acknowledged prefix, exact loss accounting.
            let rotten = sim.fork();
            rotten.install(victim, &bytes);
            let d = ChronicleDb::open_with_vfs(Arc::new(rotten.clone()), root, salvage_opts(opts))
                .unwrap_or_else(|e| panic!("byte {at}: salvage open must recover, got: {e}"));
            let recovered = d.stats().appends as usize;
            assert!(recovered < APPENDS, "byte {at}: the rotted record must go");
            assert_eq!(
                d.snapshot_views(),
                snaps[recovered],
                "byte {at}: salvaged state is not the acknowledged prefix"
            );
            let sr = report_of(&d, &rotten);
            assert_eq!(
                sr.replayed_through,
                floor + recovered as u64,
                "byte {at}: report and replayed state disagree"
            );
            assert!(
                !sr.segments_quarantined.is_empty(),
                "byte {at}: the untrusted tail must be quarantined, not deleted"
            );
            let lost = sr
                .lost
                .unwrap_or_else(|| panic!("byte {at}: records were dropped but none confessed"));
            assert_eq!(lost.first, sr.replayed_through + 1, "byte {at}");
            assert_eq!(
                lost.last, last_lsn,
                "byte {at}: loss must extend through the newest record on disk"
            );

            // The salvaged disk is repaired: a second open — back under
            // Strict — succeeds with the same state and nothing to report.
            drop(d);
            let d = ChronicleDb::open_with_vfs(Arc::new(rotten), root, opts)
                .unwrap_or_else(|e| panic!("byte {at}: reopen after salvage failed: {e}"));
            assert_eq!(d.snapshot_views(), snaps[recovered], "byte {at}: reopen");
        }
    }

    /// Sweep: flip one bit in EVERY byte of the final segment's 16-byte
    /// header while acknowledged frames follow it. Only a file no longer
    /// than its header is the footprint of a crash while creating the
    /// segment; here the header is rot, so Strict must refuse every flip
    /// with an error naming the segment and leave the file in place.
    #[test]
    fn rotted_final_segment_header_swept_per_byte() {
        const HEADER_LEN: usize = 16;
        let sim = SimFs::new(0xb17_f1a);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/rot-final");
        let opts = DurabilityOptions {
            segment_bytes: 256,
            ..Default::default()
        };
        {
            let mut d = ChronicleDb::open_with_vfs(Arc::clone(&vfs), root, opts).unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            for i in 0..10 {
                append_nth(&mut d, i);
            }
        }
        let segs = files_with_ext(&sim, &root.join("wal"), "seg");
        let victim = segs.last().unwrap();
        let full = sim.peek(victim).unwrap();
        assert!(full.len() > HEADER_LEN, "the final segment holds frames");
        let name = victim.file_name().unwrap().to_str().unwrap();

        for at in 0..HEADER_LEN {
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;
            let rotten = sim.fork();
            rotten.install(victim, &bytes);
            let err = ChronicleDb::open_with_vfs(Arc::new(rotten.clone()), root, opts)
                .err()
                .unwrap_or_else(|| panic!("byte {at}: strict open must refuse"));
            match &err {
                ChronicleError::Corruption { detail } => {
                    assert!(detail.contains(name), "byte {at}: {detail}")
                }
                other => panic!("byte {at}: expected Corruption, got: {other}"),
            }
            assert_eq!(
                rotten.peek(victim).as_deref(),
                Some(&bytes[..]),
                "byte {at}: the refused segment must stay on disk"
            );
        }
    }

    /// An intact checkpoint of another format (magic `CHRCKPT2`, CRC
    /// fixed up) is not rot: Strict and Salvage both refuse it with
    /// `UnsupportedFormat` naming the image, and Salvage quarantines
    /// nothing — falling back past it would open a well-formed database
    /// to an older state.
    #[test]
    fn checkpoint_of_another_format_is_refused_not_skipped() {
        let sim = SimFs::new(0xb17_c4f);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/ckpt-format");
        let opts = DurabilityOptions::default();
        {
            let mut d = ChronicleDb::open_with_vfs(Arc::clone(&vfs), root, opts).unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            for i in 0..4 {
                append_nth(&mut d, i);
            }
            d.checkpoint().unwrap();
            append_nth(&mut d, 4);
        }
        let ckpts = files_with_ext(&sim, root, "ckpt");
        let image = ckpts.last().unwrap();
        let mut bytes = sim.peek(image).unwrap();
        let at = bytes
            .windows(8)
            .position(|w| w == b"CHRCKPT1")
            .expect("the image carries its magic");
        bytes[at + 7] = b'2';
        let body = bytes.len() - 4;
        let crc = chronicle::durability::crc::crc32(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_le_bytes());
        let name = image.file_name().unwrap().to_str().unwrap();

        for policy in [RecoveryPolicy::Strict, RecoveryPolicy::Salvage] {
            let other = sim.fork();
            other.install(image, &bytes);
            let opts = DurabilityOptions {
                recovery: policy,
                ..opts
            };
            let err = ChronicleDb::open_with_vfs(Arc::new(other.clone()), root, opts)
                .err()
                .unwrap_or_else(|| panic!("{policy:?}: the open must refuse"));
            match &err {
                ChronicleError::UnsupportedFormat {
                    artifact, found, ..
                } => {
                    assert!(artifact.contains(name), "{policy:?}: {err}");
                    assert_eq!(found, "CHRCKPT2", "{policy:?}");
                }
                other => panic!("{policy:?}: expected UnsupportedFormat, got: {other}"),
            }
            assert!(
                !other
                    .live_files()
                    .iter()
                    .any(|p| p.starts_with(root.join("quarantine"))),
                "{policy:?}: nothing may be quarantined"
            );
            assert_eq!(other.peek(image).as_deref(), Some(&bytes[..]), "{policy:?}");
        }
    }

    /// Sweep: flip one byte at EVERY offset of the NEWEST checkpoint
    /// image while an older image is still retained. Checkpointing
    /// truncated the WAL through the newest image, so its records exist
    /// nowhere else: Strict must refuse (falling back to the older image
    /// exposes a WAL gap), and Salvage must quarantine the rotted image,
    /// rebuild from the older one, and confess every LSN between the two
    /// images and the tail as lost.
    #[test]
    fn rotted_newest_checkpoint_swept_per_byte() {
        let sim = SimFs::new(0xb17_c49);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/rot-ckpt");
        let opts = DurabilityOptions::default();
        let (first_ckpt, second_ckpt) = {
            let mut d = ChronicleDb::open_with_vfs(Arc::clone(&vfs), root, opts).unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            for i in 0..4 {
                append_nth(&mut d, i);
            }
            let first = d.checkpoint().unwrap();
            for i in 4..10 {
                append_nth(&mut d, i);
            }
            let second = d.checkpoint().unwrap(); // prunes the WAL through here
            for i in 10..12 {
                append_nth(&mut d, i); // a tail beyond the newest image
            }
            (first, second)
        };
        let last_lsn = second_ckpt + 2;
        let snaps = oracle_snapshots(12);
        let ckpts = files_with_ext(&sim, root, "ckpt");
        assert_eq!(ckpts.len(), 2, "both retained images are on disk");
        let newest = ckpts.last().unwrap();
        let full = sim.peek(newest).unwrap();

        for at in 0..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;

            let rotten = sim.fork();
            rotten.install(newest, &bytes);
            let err = ChronicleDb::open_with_vfs(Arc::new(rotten), root, opts).unwrap_err();
            assert!(
                matches!(err, ChronicleError::Corruption { .. }),
                "byte {at}: strict open must refuse the WAL gap, got: {err}"
            );

            let rotten = sim.fork();
            rotten.install(newest, &bytes);
            let d = ChronicleDb::open_with_vfs(Arc::new(rotten.clone()), root, salvage_opts(opts))
                .unwrap_or_else(|e| panic!("byte {at}: salvage open must recover, got: {e}"));
            // All that is trustworthy is the older image: 4 appends.
            assert_eq!(
                d.snapshot_views(),
                snaps[4],
                "byte {at}: salvaged state is not the older checkpoint's state"
            );
            let sr = report_of(&d, &rotten);
            assert_eq!(sr.replayed_through, first_ckpt, "byte {at}");
            assert_eq!(
                sr.checkpoints_quarantined.len(),
                1,
                "byte {at}: the rotted image must be quarantined, not deleted"
            );
            let lost = sr
                .lost
                .unwrap_or_else(|| panic!("byte {at}: records were dropped but none confessed"));
            assert_eq!(lost.first, first_ckpt + 1, "byte {at}");
            assert_eq!(
                lost.last, last_lsn,
                "byte {at}: loss must cover the pruned range and the tail"
            );

            drop(d);
            let d = ChronicleDb::open_with_vfs(Arc::new(rotten), root, opts)
                .unwrap_or_else(|e| panic!("byte {at}: reopen after salvage failed: {e}"));
            assert_eq!(d.snapshot_views(), snaps[4], "byte {at}: reopen");
        }
    }

    /// Transient `Interrupted` short reads are a device hiccup, not rot:
    /// both recovery and the scrubber must retry them away and succeed
    /// with no salvage action and no findings.
    #[test]
    fn transient_short_reads_are_retried_by_open_and_scrub() {
        const APPENDS: usize = 8;
        let sim = SimFs::new(0x5407);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/short-reads");
        let opts = DurabilityOptions::default();
        {
            let mut d = ChronicleDb::open_with_vfs(Arc::clone(&vfs), root, opts).unwrap();
            for stmt in DDL {
                d.execute(stmt).unwrap();
            }
            d.checkpoint().unwrap();
            for i in 0..APPENDS {
                append_nth(&mut d, i);
            }
        }
        let snaps = oracle_snapshots(APPENDS);

        sim.set_short_reads(2);
        let d = ChronicleDb::open_with_vfs(Arc::clone(&vfs), root, opts)
            .expect("transient short reads must be retried, not fatal");
        assert_eq!(d.snapshot_views(), snaps[APPENDS]);

        sim.set_short_reads(2);
        let report = d.scrub().expect("scrub must retry transient short reads");
        assert!(report.clean(), "hiccups are not findings: {report}");
        assert!(report.segments_checked >= 1);
        assert!(report.checkpoints_checked >= 1);
    }
}

// ---- Sharded bit-rot sweeps -----------------------------------------------

mod sharded_bit_rot {
    use super::*;
    use chronicle::db::{shard_of_group, ShardedDb};
    use chronicle::simkit::{SimFs, Vfs};
    use std::path::{Path, PathBuf};
    use std::sync::Arc;

    const SHARDS: usize = 4;
    const GROUPS: usize = 8;
    const APPENDS: usize = 48;

    fn ddl_for_group(g: usize) -> [String; 3] {
        [
            format!("CREATE GROUP g{g}"),
            format!("CREATE CHRONICLE c{g} (sn SEQ, k INT, v FLOAT) IN GROUP g{g}"),
            format!("CREATE VIEW v{g} AS SELECT k, SUM(v) AS t FROM c{g} GROUP BY k"),
        ]
    }

    fn ddl() -> Vec<String> {
        (0..GROUPS).flat_map(ddl_for_group).collect()
    }

    fn history() -> Vec<(usize, i64, i64, f64)> {
        (0..APPENDS)
            .map(|i| (i % GROUPS, i as i64 + 1, (i % 3) as i64, i as f64))
            .collect()
    }

    fn groups_of(shard: usize) -> Vec<usize> {
        (0..GROUPS)
            .filter(|g| shard_of_group(&format!("g{g}"), SHARDS) == shard)
            .collect()
    }

    /// One sorted view snapshot per acknowledged append prefix.
    type Snapshots = Vec<Vec<(String, Vec<u8>)>>;

    /// Per-shard oracle over the first `upto` global appends: `snaps[k]`
    /// is the (sorted) view state of `shard` after the first `k` appends
    /// destined to it.
    fn shard_oracle(shard: usize) -> Snapshots {
        let groups = groups_of(shard);
        let mut db = ChronicleDb::new();
        for stmt in groups.iter().flat_map(|g| ddl_for_group(*g)) {
            db.execute(&stmt).unwrap();
        }
        let sorted = |db: &ChronicleDb| {
            let mut s = db.snapshot_views();
            s.sort();
            s
        };
        let mut snaps = vec![sorted(&db)];
        for (g, at, k, v) in history() {
            if !groups.contains(&g) {
                continue;
            }
            db.append(
                &format!("c{g}"),
                Chronon(at),
                &[vec![Value::Int(k), Value::Float(v)]],
            )
            .unwrap();
            snaps.push(sorted(&db));
        }
        snaps
    }

    /// How many of the first `upto` global appends land on `shard`.
    fn appends_to(shard: usize, upto: usize) -> usize {
        let groups = groups_of(shard);
        history()
            .iter()
            .take(upto)
            .filter(|(g, ..)| groups.contains(g))
            .count()
    }

    fn files_with_ext(sim: &SimFs, dir: &Path, ext: &str) -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = sim
            .live_files()
            .into_iter()
            .filter(|p| p.starts_with(dir) && p.extension().is_some_and(|x| x == ext))
            .collect();
        v.sort();
        v
    }

    fn salvage_opts(base: DurabilityOptions) -> DurabilityOptions {
        DurabilityOptions {
            recovery: RecoveryPolicy::Salvage,
            ..base
        }
    }

    /// Check the per-shard states of a salvaged open: the victim holds
    /// exactly a proper prefix of its appends — `expect` if given, else
    /// however many WAL records its recovery replayed — and every peer
    /// holds its full state with a trivial report. Returns the victim's
    /// report. (`expect` matters when the victim rebuilt from a
    /// checkpoint image: image restores don't count as replayed appends.)
    fn check_shards(
        d: &ShardedDb,
        fs: &SimFs,
        oracles: &[Snapshots],
        victim: usize,
        expect: Option<usize>,
        label: &str,
    ) -> SalvageReport {
        for (s, oracle) in oracles.iter().enumerate() {
            let mut got = d.shard(s).snapshot_views();
            got.sort();
            if s == victim {
                let recovered = expect.unwrap_or_else(|| d.shard(s).stats().appends as usize);
                assert!(recovered < oracle.len() - 1, "{label}: shard {s} lost data");
                assert_eq!(
                    got, oracle[recovered],
                    "{label}: victim state is not its acknowledged prefix"
                );
            } else {
                assert_eq!(
                    got,
                    *oracle.last().unwrap(),
                    "{label}: peer shard {s} must be untouched"
                );
                if let Some(sr) = &d.shard(s).stats().salvage {
                    assert!(sr.is_trivial(), "{label}: peer shard {s} reports {sr}");
                }
            }
        }
        let sr = d
            .shard(victim)
            .stats()
            .salvage
            .clone()
            .expect("victim shard reports");
        for path in sr
            .checkpoints_quarantined
            .iter()
            .chain(sr.segments_quarantined.iter().map(|q| &q.path))
        {
            assert!(
                fs.peek(path).is_some(),
                "{label}: report names quarantined file {} but nothing is there",
                path.display()
            );
        }
        let agg = d.stats().salvage.expect("aggregate report");
        assert!(agg.data_lost(), "{label}: aggregate report must admit loss");
        sr
    }

    /// Sweep a sealed non-final WAL segment of ONE shard, byte by byte.
    /// Strict refuses the whole database; Salvage recovers the victim's
    /// acknowledged prefix while every peer shard recovers completely —
    /// rot, like crashes, respects shard failure domains.
    #[test]
    fn rotted_shard_segment_swept_per_byte() {
        let sim = SimFs::new(0xb17_54a);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/sharded-rot-seg");
        let opts = DurabilityOptions {
            segment_bytes: 256,
            ..Default::default()
        };
        let floors = {
            let mut d = ShardedDb::open_with_vfs(Arc::clone(&vfs), root, SHARDS, opts).unwrap();
            for stmt in ddl() {
                d.execute(&stmt).unwrap();
            }
            let floors = d.checkpoint().unwrap(); // WAL tails now hold only appends
            for (g, at, k, v) in history() {
                d.append(
                    &format!("c{g}"),
                    Chronon(at),
                    &[vec![Value::Int(k), Value::Float(v)]],
                )
                .unwrap();
            }
            floors
        };
        let oracles: Vec<_> = (0..SHARDS).map(shard_oracle).collect();
        for (s, oracle) in oracles.iter().enumerate() {
            assert!(
                oracle.len() > 1,
                "shard {s} owns no appends; grow GROUPS so every shard is exercised"
            );
        }
        let victim = 0;
        let wal_dir = root.join(format!("shard-{victim:03}")).join("wal");
        let segs = files_with_ext(&sim, &wal_dir, "seg");
        assert!(
            segs.len() >= 2,
            "victim shard needs a sealed segment, got {}",
            segs.len()
        );
        let target = &segs[0];
        let full = sim.peek(target).unwrap();

        for at in 0..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;

            let rotten = sim.fork();
            rotten.install(target, &bytes);
            let err = ShardedDb::open_with_vfs(Arc::new(rotten), root, SHARDS, opts).unwrap_err();
            assert!(
                matches!(err, ChronicleError::Durability { .. })
                    && err.to_string().contains("corrupt"),
                "byte {at}: strict open must refuse, got: {err}"
            );

            let rotten = sim.fork();
            rotten.install(target, &bytes);
            let d = ShardedDb::open_with_vfs(
                Arc::new(rotten.clone()),
                root,
                SHARDS,
                salvage_opts(opts),
            )
            .unwrap_or_else(|e| panic!("byte {at}: salvage open must recover, got: {e}"));
            let label = format!("byte {at}");
            let sr = check_shards(&d, &rotten, &oracles, victim, None, &label);
            let recovered = d.shard(victim).stats().appends;
            assert_eq!(sr.replayed_through, floors[victim] + recovered, "{label}");
            let lost = sr
                .lost
                .unwrap_or_else(|| panic!("{label}: records were dropped but none confessed"));
            assert_eq!(lost.first, sr.replayed_through + 1, "{label}");
        }
    }

    /// Sweep the victim shard's NEWEST checkpoint image, byte by byte,
    /// with an older image retained and the WAL pruned through the newest.
    /// Strict refuses; Salvage rebuilds the victim from the older image
    /// (confessing the pruned range) and every peer recovers completely.
    #[test]
    fn rotted_shard_checkpoint_swept_per_byte() {
        // Checkpoint after the first 16 appends (the fallback image), again
        // after 40 (the victim image; this prunes every shard's WAL), and
        // leave the final 8 — one per group, so one reaches every shard —
        // as a WAL tail beyond the newest image.
        const FIRST: usize = 16;
        const SECOND: usize = 40;
        let sim = SimFs::new(0xb17_54b);
        let vfs: Arc<dyn Vfs> = Arc::new(sim.clone());
        let root = Path::new("/sim/sharded-rot-ckpt");
        let opts = DurabilityOptions::default();
        let append = |d: &mut ShardedDb, (g, at, k, v): (usize, i64, i64, f64)| {
            d.append(
                &format!("c{g}"),
                Chronon(at),
                &[vec![Value::Int(k), Value::Float(v)]],
            )
            .unwrap();
        };
        let floors = {
            let mut d = ShardedDb::open_with_vfs(Arc::clone(&vfs), root, SHARDS, opts).unwrap();
            for stmt in ddl() {
                d.execute(&stmt).unwrap();
            }
            let h = history();
            for op in &h[..FIRST] {
                append(&mut d, *op);
            }
            let floors = d.checkpoint().unwrap();
            for op in &h[FIRST..SECOND] {
                append(&mut d, *op);
            }
            d.checkpoint().unwrap(); // prunes each shard's WAL through here
            for op in &h[SECOND..] {
                append(&mut d, *op);
            }
            floors
        };
        let oracles: Vec<_> = (0..SHARDS).map(shard_oracle).collect();
        let victim = 0;
        let shard_dir = root.join(format!("shard-{victim:03}"));
        let ckpts = files_with_ext(&sim, &shard_dir, "ckpt");
        assert_eq!(ckpts.len(), 2, "victim shard retains both images");
        let newest = ckpts.last().unwrap();
        let full = sim.peek(newest).unwrap();
        let at_older = appends_to(victim, FIRST);

        for at in 0..full.len() {
            let mut bytes = full.clone();
            bytes[at] ^= 0x40;

            let rotten = sim.fork();
            rotten.install(newest, &bytes);
            let err = ShardedDb::open_with_vfs(Arc::new(rotten), root, SHARDS, opts).unwrap_err();
            assert!(
                matches!(err, ChronicleError::Durability { .. })
                    && err.to_string().contains("corrupt"),
                "byte {at}: strict open must refuse the WAL gap, got: {err}"
            );

            let rotten = sim.fork();
            rotten.install(newest, &bytes);
            let d = ShardedDb::open_with_vfs(
                Arc::new(rotten.clone()),
                root,
                SHARDS,
                salvage_opts(opts),
            )
            .unwrap_or_else(|e| panic!("byte {at}: salvage open must recover, got: {e}"));
            let label = format!("byte {at}");
            let sr = check_shards(&d, &rotten, &oracles, victim, Some(at_older), &label);
            assert_eq!(sr.replayed_through, floors[victim], "{label}");
            assert_eq!(sr.checkpoints_quarantined.len(), 1, "{label}");
            let lost = sr
                .lost
                .unwrap_or_else(|| panic!("{label}: records were dropped but none confessed"));
            assert_eq!(lost.first, floors[victim] + 1, "{label}");
        }
    }
}
