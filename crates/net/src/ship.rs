//! Leader-side WAL shipping: cursors over live segments.
//!
//! A [`Shipper`] owns one cursor per shard and turns the leader's segment
//! surface ([`WalSource`]) into an ordered stream of [`ShipEvent`]s: a
//! `Start` when a segment stream (re)opens, `Bytes` chunks, and a `Seal`
//! when the leader sealed the segment and the follower may move on. The
//! events map one-to-one onto the wire messages, but the shipper itself is
//! transport-free — the TCP server, the deterministic simulation, and the
//! bench harness all drive the same `pump` loop.
//!
//! Resume discipline (mirroring [`chronicle_durability::WalIngest`]): a
//! cursor seeking lsn `L` restarts the *whole* segment containing `L` from
//! byte offset 0. The follower rewrites it byte-for-byte and skips records
//! at or below its applied lsn, so no byte-level negotiation is needed and
//! the follower's local file never diverges from the leader's.
//!
//! Only flushed bytes are ever visible through [`WalSource`] (see
//! [`chronicle_durability::Wal::read_segment`]), so a follower can never
//! apply a record its crash-recovered leader would not have.

use chronicle_db::pipeline::ShardedPipelineHandle;
use chronicle_db::ShardedDb;
use chronicle_durability::{SegmentInfo, SegmentRead};
use chronicle_types::{ChronicleError, Result};

/// Default shipping chunk: big enough to amortize framing, small enough
/// to interleave shards fairly.
pub const DEFAULT_CHUNK: usize = 64 * 1024;

/// The leader-side segment surface a [`Shipper`] reads. Implemented for a
/// running [`ShardedPipelineHandle`] (the TCP server's view) and for a
/// directly held [`ShardedDb`] (simulation and bench harnesses).
pub trait WalSource {
    /// Number of shards.
    fn shard_count(&self) -> usize;
    /// Highest durable lsn of one shard.
    fn last_durable_lsn(&self, shard: usize) -> Result<u64>;
    /// The live segment containing `lsn` on one shard.
    fn segment_containing(&self, shard: usize, lsn: u64) -> Result<Option<SegmentInfo>>;
    /// Raw segment bytes of one shard (flushed prefix only for the active
    /// segment).
    fn read_segment(
        &self,
        shard: usize,
        first_lsn: u64,
        offset: u64,
        max: usize,
    ) -> Result<SegmentRead>;
}

impl WalSource for ShardedPipelineHandle {
    fn shard_count(&self) -> usize {
        ShardedPipelineHandle::shard_count(self)
    }

    fn last_durable_lsn(&self, shard: usize) -> Result<u64> {
        self.with_shard(shard, |db| db.wal_last_durable_lsn())?
    }

    fn segment_containing(&self, shard: usize, lsn: u64) -> Result<Option<SegmentInfo>> {
        self.with_shard(shard, move |db| db.wal_segment_containing(lsn))?
    }

    fn read_segment(
        &self,
        shard: usize,
        first_lsn: u64,
        offset: u64,
        max: usize,
    ) -> Result<SegmentRead> {
        self.with_shard(shard, move |db| db.wal_read_segment(first_lsn, offset, max))?
    }
}

impl WalSource for ShardedDb {
    fn shard_count(&self) -> usize {
        ShardedDb::shard_count(self)
    }

    fn last_durable_lsn(&self, shard: usize) -> Result<u64> {
        self.shard(shard).wal_last_durable_lsn()
    }

    fn segment_containing(&self, shard: usize, lsn: u64) -> Result<Option<SegmentInfo>> {
        self.shard(shard).wal_segment_containing(lsn)
    }

    fn read_segment(
        &self,
        shard: usize,
        first_lsn: u64,
        offset: u64,
        max: usize,
    ) -> Result<SegmentRead> {
        self.shard(shard).wal_read_segment(first_lsn, offset, max)
    }
}

/// One shipping step's output, addressed to a shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShipEvent {
    /// A segment stream (re)opens from byte offset 0.
    Start {
        /// Shard index.
        shard: usize,
        /// Segment identity.
        first_lsn: u64,
    },
    /// Raw segment bytes at an offset.
    Bytes {
        /// Shard index.
        shard: usize,
        /// Segment identity.
        first_lsn: u64,
        /// Byte offset within the segment.
        offset: u64,
        /// The bytes.
        bytes: Vec<u8>,
    },
    /// The segment is complete.
    Seal {
        /// Shard index.
        shard: usize,
        /// Segment identity.
        first_lsn: u64,
    },
}

#[derive(Debug, Clone, Copy)]
enum Cursor {
    /// Find the segment containing this lsn and restart it from offset 0.
    Seek(u64),
    /// Mid-segment, next byte to ship.
    At { first_lsn: u64, offset: u64 },
}

/// Per-shard shipping cursors (see module docs).
#[derive(Debug)]
pub struct Shipper {
    cursors: Vec<Cursor>,
    chunk: usize,
}

impl Shipper {
    /// A shipper resuming after `applied` — the follower's per-shard
    /// applied lsns (zeros for a fresh follower).
    pub fn new(applied: &[u64], chunk: usize) -> Shipper {
        Shipper {
            cursors: applied.iter().map(|&l| Cursor::Seek(l + 1)).collect(),
            chunk: chunk.max(1),
        }
    }

    /// Advance every shard by at most one chunk of bytes, emitting events.
    /// Returns `true` when every shard is fully caught up with its
    /// leader's durable frontier (the caller then sleeps or polls).
    ///
    /// An `Err` from `emit` aborts the pump (connection gone); an `Err`
    /// from the source is a protocol-fatal condition, e.g. the history a
    /// cursor needs was checkpoint-truncated away.
    pub fn pump(
        &mut self,
        src: &impl WalSource,
        emit: &mut impl FnMut(ShipEvent) -> Result<()>,
    ) -> Result<bool> {
        let mut all_caught_up = true;
        for shard in 0..self.cursors.len() {
            if !self.pump_shard(shard, src, emit)? {
                all_caught_up = false;
            }
        }
        Ok(all_caught_up)
    }

    /// Advance one shard; returns `true` when it is caught up.
    fn pump_shard(
        &mut self,
        shard: usize,
        src: &impl WalSource,
        emit: &mut impl FnMut(ShipEvent) -> Result<()>,
    ) -> Result<bool> {
        let mut sent_bytes = false;
        loop {
            match self.cursors[shard] {
                Cursor::Seek(lsn) => {
                    let seg = src.segment_containing(shard, lsn)?.ok_or_else(|| {
                        ChronicleError::Durability {
                            detail: format!(
                                "shard {shard}: WAL history at lsn {lsn} was truncated away; \
                                 the follower needs a fresh copy"
                            ),
                        }
                    })?;
                    emit(ShipEvent::Start {
                        shard,
                        first_lsn: seg.first_lsn,
                    })?;
                    self.cursors[shard] = Cursor::At {
                        first_lsn: seg.first_lsn,
                        offset: 0,
                    };
                }
                Cursor::At { first_lsn, offset } => {
                    if sent_bytes {
                        // One chunk per shard per pump keeps shards fair.
                        return Ok(false);
                    }
                    let read = src.read_segment(shard, first_lsn, offset, self.chunk)?;
                    let n = read.bytes.len() as u64;
                    if n > 0 {
                        emit(ShipEvent::Bytes {
                            shard,
                            first_lsn,
                            offset,
                            bytes: read.bytes,
                        })?;
                        sent_bytes = true;
                        self.cursors[shard] = Cursor::At {
                            first_lsn,
                            offset: offset + n,
                        };
                    }
                    if offset + n >= read.total_len {
                        if read.sealed {
                            emit(ShipEvent::Seal { shard, first_lsn })?;
                            // The sealed segment's last lsn names the next
                            // segment's first record.
                            let info =
                                src.segment_containing(shard, first_lsn)?.ok_or_else(|| {
                                    ChronicleError::Durability {
                                        detail: format!(
                                            "shard {shard}: segment at lsn {first_lsn} vanished \
                                         while being shipped"
                                        ),
                                    }
                                })?;
                            self.cursors[shard] = Cursor::Seek(info.last_lsn + 1);
                        } else {
                            // Active segment fully shipped: caught up.
                            return Ok(true);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_db::{DurabilityOptions, FollowerDb};
    use chronicle_simkit::{SimFs, Vfs};
    use std::sync::Arc;

    fn opts() -> DurabilityOptions {
        DurabilityOptions {
            segment_bytes: 256,
            fsync: true,
            ..DurabilityOptions::default()
        }
    }

    /// Drive a shipper against a follower until caught up; the error path
    /// a real transport adds is absent here.
    fn sync(shipper: &mut Shipper, src: &impl WalSource, f: &mut FollowerDb) {
        loop {
            let mut events = Vec::new();
            let done = shipper
                .pump(src, &mut |e| {
                    events.push(e);
                    Ok(())
                })
                .unwrap();
            for e in events {
                match e {
                    ShipEvent::Start { shard, first_lsn } => {
                        f.begin_segment(shard, first_lsn).unwrap()
                    }
                    ShipEvent::Bytes {
                        shard,
                        first_lsn: _,
                        offset,
                        bytes,
                    } => {
                        f.ingest(shard, offset, &bytes).unwrap();
                    }
                    ShipEvent::Seal { shard, first_lsn } => {
                        f.seal_segment(shard, first_lsn).unwrap()
                    }
                }
            }
            if done {
                break;
            }
        }
    }

    #[test]
    fn shipper_streams_rotating_segments_to_convergence() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(21));
        let mut leader = ShardedDb::open_with_vfs(Arc::clone(&fs), "/L", 2, opts()).unwrap();
        leader.execute("CREATE GROUP g").unwrap();
        leader
            .execute("CREATE CHRONICLE c (sn SEQ, x INT) IN GROUP g")
            .unwrap();
        leader
            .execute("CREATE VIEW v AS SELECT x, COUNT(*) AS n FROM c GROUP BY x")
            .unwrap();
        let mut f = FollowerDb::open_with_vfs(Arc::clone(&fs), "/F", 2, opts()).unwrap();
        let mut shipper = Shipper::new(&f.applied_lsns(), 37);

        // Interleave leader writes with catch-up pumps: tiny segments force
        // many rotations mid-stream.
        for round in 0..10 {
            for i in 0..15 {
                leader
                    .execute(&format!("APPEND INTO c VALUES ({})", (round * 15 + i) % 4))
                    .unwrap();
            }
            leader.wal_flush().unwrap();
            sync(&mut shipper, &leader, &mut f);
            assert_eq!(
                f.db().snapshot_views(),
                leader.snapshot_views(),
                "round {round}"
            );
        }
    }

    #[test]
    fn reconnect_reships_the_applied_segment_without_duplication() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(22));
        let mut leader = ShardedDb::open_with_vfs(Arc::clone(&fs), "/L", 1, opts()).unwrap();
        leader.execute("CREATE GROUP g").unwrap();
        leader
            .execute("CREATE CHRONICLE c (sn SEQ, x INT) IN GROUP g")
            .unwrap();
        leader
            .execute("CREATE VIEW v AS SELECT x, SUM(x) AS s FROM c GROUP BY x")
            .unwrap();
        for i in 0..20 {
            leader
                .execute(&format!("APPEND INTO c VALUES ({})", i % 3))
                .unwrap();
        }
        leader.wal_flush().unwrap();

        let mut f = FollowerDb::open_with_vfs(Arc::clone(&fs), "/F", 1, opts()).unwrap();
        let mut s1 = Shipper::new(&f.applied_lsns(), 50);
        sync(&mut s1, &leader, &mut f);
        let mid = f.applied_lsn(0);
        assert!(mid > 0);

        // "Connection drops"; more writes land; a fresh shipper resumes
        // from the follower's applied watermark.
        for i in 0..20 {
            leader
                .execute(&format!("APPEND INTO c VALUES ({})", i % 3))
                .unwrap();
        }
        leader.wal_flush().unwrap();
        let mut s2 = Shipper::new(&f.applied_lsns(), 50);
        sync(&mut s2, &leader, &mut f);
        assert!(f.applied_lsn(0) > mid);
        assert_eq!(f.db().snapshot_views(), leader.snapshot_views());
    }

    #[test]
    fn truncated_history_is_a_loud_error() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(23));
        let mut leader = ShardedDb::open_with_vfs(Arc::clone(&fs), "/L", 1, opts()).unwrap();
        leader.execute("CREATE GROUP g").unwrap();
        leader
            .execute("CREATE CHRONICLE c (sn SEQ, x INT) IN GROUP g")
            .unwrap();
        for i in 0..40 {
            leader
                .execute(&format!("APPEND INTO c VALUES ({i})"))
                .unwrap();
        }
        // Checkpointing without a retain floor deletes covered segments;
        // a fresh follower (applied 0) can then not be served.
        leader.checkpoint().unwrap();
        let mut shipper = Shipper::new(&[0], 64);
        let err = shipper.pump(&leader, &mut |_| Ok(())).unwrap_err();
        assert!(err.to_string().contains("truncated"), "{err}");
    }
}
