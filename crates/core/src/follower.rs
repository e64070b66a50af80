//! Read-only replication follower.
//!
//! A [`FollowerDb`] is the receiving end of WAL log shipping: the same
//! per-shard layout as [`ShardedDb`] (one `SHARDS`
//! manifest, one directory per shard), recovered through the identical
//! checkpoint-plus-WAL-tail path — but with the write-side durability
//! layer *detached*. Mutations arrive only as raw leader WAL bytes fed
//! through [`chronicle_durability::WalIngest`], which persists them into
//! the follower's own WAL directory (so a follower crash recovers through
//! the normal path) and surfaces decoded records that are applied through
//! the same maintenance machinery the leader ran.
//!
//! Consequences of that design:
//!
//! * the follower's durable state is byte-compatible with a leader's — a
//!   follower directory can be opened as a [`ShardedDb`] to *promote* it;
//! * replay order per shard is exactly the leader's WAL order, so every
//!   view converges to a prefix of the leader's history (the invariant the
//!   replication simulation asserts against its acked-prefix oracle);
//! * the follower never logs, never checkpoints, and never truncates in
//!   this version — retention is the leader's problem (it pins a retain
//!   floor while followers are attached).
//!
//! The shipping protocol itself (framing, resume, heartbeats) lives in
//! `crates/net`; this type is transport-agnostic and is driven the same
//! way by the TCP server, the deterministic simulation, and the bench
//! harness.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use chronicle_durability::{DurabilityOptions, ShardManifest, WalIngest};
use chronicle_simkit::{RealFs, Vfs};
use chronicle_types::{mutate, ChronicleError, Result};

use crate::db::ChronicleDb;
use crate::shard::ShardedDb;
use crate::stats::DbStats;

/// A read-only sharded replica fed by leader WAL bytes: a write-detached
/// [`ShardedDb`] (read it through [`FollowerDb::db`]) plus the per-shard
/// ingest state that is the only way mutations reach it.
#[derive(Debug)]
pub struct FollowerDb {
    db: ShardedDb,
    ingests: Vec<WalIngest>,
    /// Leader's last durable lsn per shard, from heartbeats (0 = unseen).
    leader_durable: Vec<u64>,
    /// How this follower was opened — kept so [`FollowerDb::promote`] can
    /// reopen the same directory as a live [`ShardedDb`].
    vfs: Arc<dyn Vfs>,
    root: PathBuf,
    opts: DurabilityOptions,
}

impl FollowerDb {
    /// Open (or create) a follower database at `path` with `shards`
    /// shards. Existing state recovers exactly like
    /// [`ShardedDb::open_with`]; ingest then resumes after the highest
    /// recovered lsn per shard.
    pub fn open_with(
        path: impl AsRef<Path>,
        shards: usize,
        opts: DurabilityOptions,
    ) -> Result<FollowerDb> {
        Self::open_with_vfs(RealFs::arc(), path, shards, opts)
    }

    /// [`FollowerDb::open_with`] against an explicit filesystem (the
    /// deterministic replication simulation runs followers over
    /// [`SimFs`](chronicle_simkit::SimFs)). Shards recover serially, in
    /// shard order, so a simulated disk sees one deterministic operation
    /// sequence.
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        path: impl AsRef<Path>,
        shards: usize,
        opts: DurabilityOptions,
    ) -> Result<FollowerDb> {
        let root = path.as_ref();
        let manifest_salvaged = ShardedDb::open_root(vfs.as_ref(), root, shards, opts)?;
        let mut dbs = Vec::with_capacity(shards);
        let mut ingests = Vec::with_capacity(shards);
        for i in 0..shards {
            let dir = ShardManifest::shard_dir(root, i);
            let mut db = ChronicleDb::open_with_vfs(Arc::clone(&vfs), &dir, opts).map_err(|e| {
                ChronicleError::Durability {
                    detail: format!("recovering follower shard {i}: {e}"),
                }
            })?;
            // Detach the write-side WAL: from here on the only mutations
            // are shipped records, persisted by the ingest instead.
            let applied = db.detach_durability();
            ingests.push(WalIngest::open(
                Arc::clone(&vfs),
                dir.join("wal"),
                opts.fsync,
                applied,
            )?);
            dbs.push(db);
        }
        Ok(FollowerDb {
            db: ShardedDb::from_shards(dbs, manifest_salvaged),
            ingests,
            leader_durable: vec![0; shards],
            vfs,
            root: root.to_path_buf(),
            opts,
        })
    }

    /// The replica's state, read-only: every [`ShardedDb`] read
    /// (`query_view`, `select`, `term`, `session_last_seq`,
    /// `snapshot_views`, `shard`, …) answers from the continuously
    /// replayed views. At equal applied lsns the answers are directly
    /// comparable with the leader's.
    pub fn db(&self) -> &ShardedDb {
        &self.db
    }

    /// Fence an incoming leader stream: a leader announcing a term *below*
    /// what this follower has already replayed (DESIGN.md §17) is a zombie
    /// — typically the deposed leader's shipper still draining after this
    /// follower was promoted elsewhere in a chain, or reconnecting after a
    /// partition healed. Accepting its bytes would fork the history, so
    /// the stream is refused with a typed [`ChronicleError::Fenced`].
    pub fn check_leader_term(&self, leader_term: u64) -> Result<()> {
        let current = self.db.term();
        if leader_term < current && !mutate("skip_fencing") {
            return Err(ChronicleError::Fenced {
                observed: leader_term,
                current,
            });
        }
        Ok(())
    }

    /// Promote this follower into a live leader: drop the ingest plumbing,
    /// reopen the same directory as a [`ShardedDb`] (the follower's
    /// durable state is byte-compatible with a leader's, so this is the
    /// normal recovery path over already-settled files), and durably adopt
    /// `term + 1` — the fencing point. Every shard logs and flushes the
    /// new `Term` record before this returns, so a deposed leader's
    /// traffic (always carrying the old term) is rejected from the first
    /// request the promoted node serves.
    pub fn promote(self) -> Result<ShardedDb> {
        let FollowerDb {
            db,
            ingests,
            vfs,
            root,
            opts,
            ..
        } = self;
        let old_term = db.term();
        let n = db.shard_count();
        // Release every file handle before the reopen: the ingests own the
        // follower-side WAL writers for the very segments recovery is
        // about to read.
        drop(ingests);
        drop(db);
        let mut db = ShardedDb::open_with_vfs(vfs, &root, n, opts)?;
        db.begin_term(old_term + 1)?;
        Ok(db)
    }

    // ---- ingest (driven by the shipping protocol) -------------------------

    /// Per-shard applied lsn — the resume point a (re)connecting follower
    /// sends its leader.
    pub fn applied_lsns(&self) -> Vec<u64> {
        self.ingests.iter().map(|i| i.applied()).collect()
    }

    /// One shard's applied lsn.
    pub fn applied_lsn(&self, shard: usize) -> u64 {
        self.ingests[shard].applied()
    }

    /// The leader announced a segment stream for `shard` (see
    /// [`WalIngest::begin_segment`]).
    pub fn begin_segment(&mut self, shard: usize, first_lsn: u64) -> Result<()> {
        self.ingests[shard].begin_segment(first_lsn)
    }

    /// Ingest raw segment bytes for `shard` at `offset`: persist them,
    /// decode complete frames, and apply every new record through the
    /// normal maintenance path. Returns how many records were applied.
    pub fn ingest(&mut self, shard: usize, offset: u64, bytes: &[u8]) -> Result<usize> {
        let records = self.ingests[shard].ingest(offset, bytes)?;
        let n = records.len();
        self.db.apply_shipped(shard, records)?;
        Ok(n)
    }

    /// The leader sealed the segment (see [`WalIngest::seal_segment`]).
    pub fn seal_segment(&mut self, shard: usize, first_lsn: u64) -> Result<()> {
        self.ingests[shard].seal_segment(first_lsn)
    }

    /// Record a leader heartbeat: its last durable lsn for `shard`.
    pub fn note_leader_durable(&mut self, shard: usize, lsn: u64) {
        let d = &mut self.leader_durable[shard];
        *d = (*d).max(lsn);
    }

    /// Worst-case replication lag in records across shards — leader
    /// durable minus follower applied, using the freshest heartbeat.
    /// `None` until a heartbeat has been seen.
    pub fn replication_lag(&self) -> Option<u64> {
        if self.leader_durable.iter().all(|&d| d == 0) {
            return None;
        }
        Some(
            self.leader_durable
                .iter()
                .zip(&self.ingests)
                .map(|(&d, i)| d.saturating_sub(i.applied()))
                .max()
                .unwrap_or(0),
        )
    }

    /// Aggregated statistics plus the follower-side replication gauges.
    pub fn stats(&self) -> DbStats {
        let mut total = self.db.stats();
        total.net_shipped_bytes = self.ingests.iter().map(|i| i.bytes_received()).sum();
        total.follower_applied_lsn = self.ingests.iter().map(|i| i.applied()).max();
        total.replication_lag = self.replication_lag();
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::ExecOutcome;
    use chronicle_simkit::SimFs;

    fn opts() -> DurabilityOptions {
        DurabilityOptions {
            segment_bytes: 512,
            fsync: true,
            ..DurabilityOptions::default()
        }
    }

    /// Ship everything the leader has flushed into the follower, in
    /// `chunk`-byte pieces, resuming from the follower's applied lsns.
    fn ship_all(leader: &ShardedDb, f: &mut FollowerDb, chunk: usize) {
        for shard in 0..leader.shard_count() {
            let db = leader.shard(shard);
            let mut resume = f.applied_lsn(shard) + 1;
            // `None`: caught up past the durable end.
            while let Some(seg) = db.wal_segment_containing(resume).unwrap() {
                f.begin_segment(shard, seg.first_lsn).unwrap();
                let mut offset = 0;
                loop {
                    let read = db.wal_read_segment(seg.first_lsn, offset, chunk).unwrap();
                    f.ingest(shard, offset, &read.bytes).unwrap();
                    offset += read.bytes.len() as u64;
                    if offset >= read.total_len {
                        break;
                    }
                }
                if !read_sealed(db, seg.first_lsn) {
                    break; // active segment: fully caught up
                }
                f.seal_segment(shard, seg.first_lsn).unwrap();
                resume = db
                    .wal_segment_containing(seg.first_lsn)
                    .unwrap()
                    .unwrap()
                    .last_lsn
                    + 1;
            }
            f.note_leader_durable(shard, db.wal_last_durable_lsn().unwrap());
        }
    }

    fn read_sealed(db: &ChronicleDb, first_lsn: u64) -> bool {
        db.wal_segment_containing(first_lsn)
            .unwrap()
            .map(|s| s.sealed)
            .unwrap_or(false)
    }

    fn seeded_leader(fs: &Arc<dyn Vfs>, shards: usize) -> ShardedDb {
        let mut db = ShardedDb::open_with_vfs(Arc::clone(fs), "/leader", shards, opts()).unwrap();
        db.execute("CREATE GROUP telecom").unwrap();
        db.execute("CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT) IN GROUP telecom")
            .unwrap();
        db.execute(
            "CREATE VIEW totals AS SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller",
        )
        .unwrap();
        for i in 0..40 {
            db.execute(&format!(
                "APPEND INTO calls VALUES ({}, {:.1})",
                i % 5,
                (i % 7) as f64
            ))
            .unwrap();
        }
        db.wal_flush().unwrap();
        db
    }

    #[test]
    fn follower_converges_to_leader_views() {
        for shards in [1usize, 3] {
            let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(77));
            let leader = seeded_leader(&fs, shards);
            let mut f =
                FollowerDb::open_with_vfs(Arc::clone(&fs), "/follower", shards, opts()).unwrap();
            ship_all(&leader, &mut f, 97);
            assert_eq!(
                f.db().snapshot_views(),
                leader.snapshot_views(),
                "{shards} shards"
            );
            assert_eq!(
                f.db().query_view("totals").unwrap(),
                leader.query_view("totals").unwrap()
            );
            assert_eq!(f.replication_lag(), Some(0));
            let stats = f.stats();
            assert!(stats.net_shipped_bytes > 0);
            assert_eq!(stats.replication_lag, Some(0));
        }
    }

    #[test]
    fn follower_restart_resumes_from_applied() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(78));
        let mut leader = seeded_leader(&fs, 2);
        let mut f = FollowerDb::open_with_vfs(Arc::clone(&fs), "/f", 2, opts()).unwrap();
        ship_all(&leader, &mut f, 64);
        let before = f.applied_lsns();
        assert!(before.iter().any(|&l| l > 0));
        drop(f);

        // More leader writes while the follower is down.
        for i in 0..10 {
            leader
                .execute(&format!("APPEND INTO calls VALUES ({}, 1.0)", 100 + i))
                .unwrap();
        }
        leader.wal_flush().unwrap();

        // Reopen: local recovery replays the ingested WAL, then shipping
        // resumes from the applied watermark.
        let mut f = FollowerDb::open_with_vfs(Arc::clone(&fs), "/f", 2, opts()).unwrap();
        assert_eq!(f.applied_lsns(), before, "recovery rebuilt the watermark");
        ship_all(&leader, &mut f, 64);
        assert_eq!(f.db().snapshot_views(), leader.snapshot_views());
    }

    #[test]
    fn follower_select_and_ddl_route_rebuild() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(79));
        let mut leader = seeded_leader(&fs, 3);
        let mut f = FollowerDb::open_with_vfs(Arc::clone(&fs), "/f", 3, opts()).unwrap();
        ship_all(&leader, &mut f, 128);

        // DDL shipped mid-stream must become routable on the follower.
        leader.execute("CREATE GROUP banking").unwrap();
        leader
            .execute("CREATE CHRONICLE txns (sn SEQ, acct INT, amount FLOAT) IN GROUP banking")
            .unwrap();
        leader
            .execute(
                "CREATE VIEW balances AS SELECT acct, SUM(amount) AS b FROM txns GROUP BY acct",
            )
            .unwrap();
        leader.execute("APPEND INTO txns VALUES (7, 12.5)").unwrap();
        leader.wal_flush().unwrap();
        ship_all(&leader, &mut f, 128);

        assert_eq!(
            f.db().query_view("balances").unwrap(),
            leader.query_view("balances").unwrap()
        );
        let rows = f.db().select("balances", &[]).unwrap();
        assert_eq!(rows, leader.query_view("balances").unwrap());
        // Equality-filtered select against a view row.
        let filtered = f
            .db()
            .select(
                "totals",
                &[("caller".to_string(), chronicle_sql::Literal::Int(1))],
            )
            .unwrap();
        assert_eq!(filtered.len(), 1);
    }

    #[test]
    fn follower_applies_shipped_group_moves() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(81));
        let mut leader = seeded_leader(&fs, 3);
        let mut f = FollowerDb::open_with_vfs(Arc::clone(&fs), "/f", 3, opts()).unwrap();
        ship_all(&leader, &mut f, 128);

        // Leader moves the group; the import/evict records ship like any
        // other WAL traffic and must rebuild the follower's routes.
        let home = leader.routes().group_shard("telecom").unwrap();
        let target = (home + 1) % 3;
        leader.move_group("telecom", target).unwrap();
        leader.execute("APPEND INTO calls VALUES (9, 3.0)").unwrap();
        leader.wal_flush().unwrap();
        ship_all(&leader, &mut f, 128);

        assert_eq!(f.db().snapshot_views(), leader.snapshot_views());
        assert_eq!(
            f.db().query_view("totals").unwrap(),
            leader.query_view("totals").unwrap()
        );
        // The follower's shard layout mirrors the leader's new placement:
        // exactly the target shard holds the group.
        let owners: Vec<usize> = (0..3)
            .filter(|&i| f.db().shard(i).has_group("telecom"))
            .collect();
        assert_eq!(owners, vec![target]);
    }

    #[test]
    fn promotion_preserves_state_and_fences_the_old_term() {
        for shards in [1usize, 3] {
            let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(82));
            let leader = seeded_leader(&fs, shards);
            let mut f =
                FollowerDb::open_with_vfs(Arc::clone(&fs), "/follower", shards, opts()).unwrap();
            ship_all(&leader, &mut f, 97);
            let expected = leader.snapshot_views();
            drop(leader); // the old leader dies mid-reign

            assert_eq!(f.db().term(), 0);
            let mut promoted = f.promote().unwrap();
            // Promotion preserved every view byte-for-byte and durably
            // adopted term 1 on every shard.
            assert_eq!(promoted.snapshot_views(), expected, "{shards} shards");
            assert_eq!(promoted.term(), 1);
            // The promoted node is a live leader: writes flow again.
            promoted
                .execute("APPEND INTO calls VALUES (1, 2.0)")
                .unwrap();
            promoted.wal_flush().unwrap();

            // A follower of the *new* leader learns the term from the
            // shipped record and fences anything older.
            let mut f2 = FollowerDb::open_with_vfs(Arc::clone(&fs), "/f2", shards, opts()).unwrap();
            ship_all(&promoted, &mut f2, 64);
            assert_eq!(f2.db().term(), 1);
            f2.check_leader_term(1).unwrap();
            f2.check_leader_term(2).unwrap();
            let err = f2.check_leader_term(0).unwrap_err();
            assert!(
                matches!(
                    err,
                    ChronicleError::Fenced {
                        observed: 0,
                        current: 1
                    }
                ),
                "{err}"
            );
            // A second promotion (chained failover) keeps climbing.
            let promoted2 = f2.promote().unwrap();
            assert_eq!(promoted2.term(), 2);
            assert_eq!(promoted2.snapshot_views(), promoted.snapshot_views());
        }
    }

    #[test]
    fn stamped_retries_dedupe_across_shipping_and_promotion() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(83));
        let mut leader = seeded_leader(&fs, 2);
        let session = 0xC11E57;

        // Statement 1 applies, then is retried (lost ack): the cached
        // outcome answers and nothing re-applies.
        let first = leader
            .execute_stamped("APPEND INTO calls VALUES (1, 9.0)", session, 1)
            .unwrap();
        let retried = leader
            .execute_stamped("APPEND INTO calls VALUES (1, 9.0)", session, 1)
            .unwrap();
        let (ExecOutcome::Appended(a), ExecOutcome::Appended(b)) = (&first, &retried) else {
            panic!("appends expected");
        };
        assert_eq!(a.seq, b.seq, "retry answered from cache, not re-applied");
        let snap_after = leader.snapshot_views();
        leader.wal_flush().unwrap();

        // The dedupe decision ships with the WAL: a follower rebuilds the
        // same table and the same state.
        let mut f = FollowerDb::open_with_vfs(Arc::clone(&fs), "/f", 2, opts()).unwrap();
        ship_all(&leader, &mut f, 53);
        assert_eq!(f.db().snapshot_views(), snap_after);
        drop(leader);

        // After failover, the *same* retry against the promoted leader is
        // still answered from cache — exactly-once across promotion.
        let mut promoted = f.promote().unwrap();
        let after = promoted
            .execute_stamped("APPEND INTO calls VALUES (1, 9.0)", session, 1)
            .unwrap();
        let ExecOutcome::Appended(c) = &after else {
            panic!("append expected");
        };
        assert_eq!(c.seq, a.seq);
        assert_eq!(promoted.snapshot_views(), snap_after);
        // The next seq is fresh work and applies normally.
        promoted
            .execute_stamped("APPEND INTO calls VALUES (1, 1.0)", session, 2)
            .unwrap();
        assert_ne!(promoted.snapshot_views(), snap_after);
    }

    #[test]
    fn shard_count_mismatch_is_loud() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(80));
        drop(FollowerDb::open_with_vfs(Arc::clone(&fs), "/f", 2, opts()).unwrap());
        let err = FollowerDb::open_with_vfs(Arc::clone(&fs), "/f", 3, opts()).unwrap_err();
        assert!(err.to_string().contains("shard count mismatch"), "{err}");
    }
}
