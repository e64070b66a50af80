//! Checkpoint images: durable snapshots of everything *except* the
//! chronicle contents.
//!
//! A checkpoint persists the catalog DDL, group watermarks, retention
//! windows, temporal relations, and every view's snapshot — the paper's
//! `O(|V|)` durable state — together with the WAL LSN it covers. After a
//! checkpoint is durable, WAL segments at or below that LSN are deleted,
//! so total durable state is `O(|V| + tail)` and never grows with the
//! chronicle length `|C|`.
//!
//! # Protocol
//!
//! 1. flush the WAL and note `lsn = last_lsn()`;
//! 2. encode the image (magic `CHRCKPT1`, body, trailing CRC-32);
//! 3. write `ckpt-{lsn}.tmp`, fsync, atomically rename to
//!    `ckpt-{lsn}.ckpt`, fsync the directory;
//! 4. prune to the newest `keep` checkpoints, rotate the WAL, delete
//!    segments covered by `lsn`.
//!
//! A crash between steps 3 and 4 is harmless: recovery loads the new
//! checkpoint and skips replayed records at or below its LSN. A crash
//! during step 3 leaves a `.tmp` file, which recovery ignores. If the
//! newest `.ckpt` is unreadable, [`load_latest`] falls back to an older
//! one; the WAL gap check in [`crate::Wal::open`] then decides loudly
//! whether the log still reaches back far enough to recover from it.

use std::path::{Path, PathBuf};

use chronicle_simkit::{RealFs, Vfs};
use chronicle_types::codec::{Reader, Writer};
use chronicle_types::{ChronicleError, Chronon, Result, SeqNo, Tuple};

use crate::crc::crc32;
use crate::retry::read_with_retry;
use crate::salvage::RecoveryPolicy;
use crate::wal::{quarantine_rename, sync_dir};

const MAGIC: &str = "CHRCKPT1";

/// Watermark state of one chronicle group.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupImage {
    /// Group name.
    pub name: String,
    /// High-water sequence number.
    pub high_water: SeqNo,
    /// Chronon of the last admitted batch, if any.
    pub last_at: Option<Chronon>,
    /// Placement epoch: bumped each time the group moves between shards
    /// (DESIGN.md §16). When reconciliation after a crash finds a group on
    /// more than one shard, the copy with the highest epoch is the one the
    /// move reached last and wins; stale copies are evicted. Always 0 for
    /// never-moved groups and in single-process databases.
    pub epoch: u64,
}

/// Counters and retained window of one chronicle.
#[derive(Debug, Clone, PartialEq)]
pub struct ChronicleImage {
    /// Chronicle name.
    pub name: String,
    /// Total tuples ever appended.
    pub total_appended: u64,
    /// Sequence number of the last appended batch.
    pub last_seq: SeqNo,
    /// Oldest sequence number still in the retention window.
    pub first_stored_seq: Option<SeqNo>,
    /// The retained window tuples, oldest first.
    pub window: Vec<Tuple>,
}

/// Full state of one temporal relation.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationImage {
    /// Relation name.
    pub name: String,
    /// Compaction floor.
    pub floor: SeqNo,
    /// Base version rows (the version at the floor).
    pub base: Vec<Tuple>,
    /// Change log above the floor: `(stamp, is_insert, tuple)`.
    pub log: Vec<(SeqNo, bool, Tuple)>,
}

/// Everything needed to rebuild a `ChronicleDb` minus the WAL tail.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CheckpointImage {
    /// WAL LSN this image covers through.
    pub lsn: u64,
    /// Database clock at checkpoint time.
    pub tick: i64,
    /// Every DDL statement executed so far, in order.
    pub ddl: Vec<String>,
    /// Group watermarks.
    pub groups: Vec<GroupImage>,
    /// Chronicle counters and windows.
    pub chronicles: Vec<ChronicleImage>,
    /// Temporal relations.
    pub relations: Vec<RelationImage>,
    /// Persistent view snapshots as `(name, bytes)`, periodic families
    /// included.
    pub views: Vec<(String, Vec<u8>)>,
    /// Leadership term the node held when the image was written (0 until
    /// a node is ever promoted). Trailing optional field: images written
    /// before terms existed decode with 0.
    pub term: u64,
    /// Encoded idempotent-session dedupe table (the core crate's session
    /// codec; opaque at this layer). Trailing optional field: empty for
    /// pre-session images and for group-slice images.
    pub sessions: Vec<u8>,
}

impl CheckpointImage {
    /// Encode to bytes with a trailing CRC-32.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(MAGIC);
        w.u64(self.lsn);
        w.i64(self.tick);
        w.u32(self.ddl.len() as u32);
        for sql in &self.ddl {
            w.str(sql);
        }
        w.u32(self.groups.len() as u32);
        for g in &self.groups {
            w.str(&g.name);
            w.seq_no(g.high_water);
            match g.last_at {
                None => w.u8(0),
                Some(at) => {
                    w.u8(1);
                    w.chronon(at);
                }
            }
            w.u64(g.epoch);
        }
        w.u32(self.chronicles.len() as u32);
        for c in &self.chronicles {
            w.str(&c.name);
            w.u64(c.total_appended);
            w.seq_no(c.last_seq);
            match c.first_stored_seq {
                None => w.u8(0),
                Some(s) => {
                    w.u8(1);
                    w.seq_no(s);
                }
            }
            w.u32(c.window.len() as u32);
            for t in &c.window {
                w.tuple(t);
            }
        }
        w.u32(self.relations.len() as u32);
        for r in &self.relations {
            w.str(&r.name);
            w.seq_no(r.floor);
            w.u32(r.base.len() as u32);
            for t in &r.base {
                w.tuple(t);
            }
            w.u32(r.log.len() as u32);
            for (at, is_insert, t) in &r.log {
                w.seq_no(*at);
                w.u8(*is_insert as u8);
                w.tuple(t);
            }
        }
        w.u32(self.views.len() as u32);
        for (name, bytes) in &self.views {
            w.str(name);
            w.bytes(bytes);
        }
        // The legacy periodic-family section, always empty: families are
        // views now, and the empty count keeps the layout.
        w.u32(0);
        // Trailing optional fields (term, session table): omitted entirely
        // when at their defaults, so images without failover state stay
        // byte-identical to the pre-term format.
        if self.term != 0 || !self.sessions.is_empty() {
            w.u64(self.term);
            w.bytes(&self.sessions);
        }
        let mut out = w.into_bytes();
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decode and validate. An intact image of another format (a `CHR`
    /// magic other than `CHRCKPT1`, or a non-empty legacy `CHRP1` section)
    /// is [`ChronicleError::UnsupportedFormat`]; any other failure is
    /// [`ChronicleError::Corruption`].
    pub fn decode(bytes: &[u8]) -> Result<CheckpointImage> {
        let corrupt = |detail: String| ChronicleError::Corruption { detail };
        let unsupported = |found: String| ChronicleError::UnsupportedFormat {
            artifact: "checkpoint image".into(),
            found,
            supported: format!("{MAGIC} with periodic families as views"),
        };
        if bytes.len() < 4 {
            return Err(corrupt("checkpoint file too short".into()));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc32(body) != stored {
            return Err(corrupt("checkpoint CRC mismatch".into()));
        }
        let mut r = Reader::new(body);
        let mut parse = || -> Result<CheckpointImage> {
            let magic = r.str()?;
            if magic != MAGIC {
                if magic.starts_with("CHR") {
                    return Err(unsupported(magic));
                }
                return Err(ChronicleError::Internal("bad checkpoint magic".into()));
            }
            let lsn = r.u64()?;
            let tick = r.i64()?;
            let mut ddl = Vec::new();
            for _ in 0..r.u32()? {
                ddl.push(r.str()?);
            }
            let mut groups = Vec::new();
            for _ in 0..r.u32()? {
                groups.push(GroupImage {
                    name: r.str()?,
                    high_water: r.seq_no()?,
                    last_at: match r.u8()? {
                        0 => None,
                        _ => Some(r.chronon()?),
                    },
                    epoch: r.u64()?,
                });
            }
            let mut chronicles = Vec::new();
            for _ in 0..r.u32()? {
                let name = r.str()?;
                let total_appended = r.u64()?;
                let last_seq = r.seq_no()?;
                let first_stored_seq = match r.u8()? {
                    0 => None,
                    _ => Some(r.seq_no()?),
                };
                let n = r.u32()? as usize;
                let mut window = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    window.push(r.tuple()?);
                }
                chronicles.push(ChronicleImage {
                    name,
                    total_appended,
                    last_seq,
                    first_stored_seq,
                    window,
                });
            }
            let mut relations = Vec::new();
            for _ in 0..r.u32()? {
                let name = r.str()?;
                let floor = r.seq_no()?;
                let nb = r.u32()? as usize;
                let mut base = Vec::with_capacity(nb.min(1024));
                for _ in 0..nb {
                    base.push(r.tuple()?);
                }
                let nl = r.u32()? as usize;
                let mut log = Vec::with_capacity(nl.min(1024));
                for _ in 0..nl {
                    log.push((r.seq_no()?, r.u8()? != 0, r.tuple()?));
                }
                relations.push(RelationImage {
                    name,
                    floor,
                    base,
                    log,
                });
            }
            let mut views = Vec::new();
            for _ in 0..r.u32()? {
                views.push((r.str()?, r.bytes()?));
            }
            let legacy = r.u32()?;
            if legacy != 0 {
                return Err(unsupported(format!(
                    "{MAGIC} with {legacy} periodic-family snapshot(s) in the legacy `CHRP1` \
                     section of an older format"
                )));
            }
            let (term, sessions) = if r.at_end() {
                (0, Vec::new())
            } else {
                (r.u64()?, r.bytes()?)
            };
            Ok(CheckpointImage {
                lsn,
                tick,
                ddl,
                groups,
                chronicles,
                relations,
                views,
                term,
                sessions,
            })
        };
        let image = parse().map_err(|e| match e {
            e @ ChronicleError::UnsupportedFormat { .. } => e,
            e => corrupt(format!("checkpoint undecodable: {e}")),
        })?;
        if !r.at_end() {
            return Err(corrupt("trailing bytes after checkpoint image".into()));
        }
        Ok(image)
    }
}

fn ckpt_name(lsn: u64) -> String {
    format!("ckpt-{lsn:020}.ckpt")
}

pub(crate) fn list_checkpoints(vfs: &dyn Vfs, dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out: Vec<(u64, PathBuf)> = vfs
        .list(dir)
        .map_err(|e| ChronicleError::Durability {
            detail: format!("listing checkpoint directory {}: {e}", dir.display()),
        })?
        .into_iter()
        .filter_map(|path| {
            let lsn: u64 = path
                .file_name()?
                .to_str()?
                .strip_prefix("ckpt-")?
                .strip_suffix(".ckpt")?
                .parse()
                .ok()?;
            Some((lsn, path))
        })
        .collect();
    out.sort();
    Ok(out)
}

/// [`write_with_vfs`] on the real filesystem.
pub fn write(dir: &Path, image: &CheckpointImage, keep: usize, fsync: bool) -> Result<PathBuf> {
    write_with_vfs(&RealFs, dir, image, keep, fsync)
}

/// Durably write `image` to `dir` (tmp + fsync + atomic rename), then
/// prune to the newest `keep` checkpoint files.
pub fn write_with_vfs(
    vfs: &dyn Vfs,
    dir: &Path,
    image: &CheckpointImage,
    keep: usize,
    fsync: bool,
) -> Result<PathBuf> {
    vfs.create_dir_all(dir)
        .map_err(|e| ChronicleError::Durability {
            detail: format!("creating checkpoint directory {}: {e}", dir.display()),
        })?;
    let io = |context: &str, p: &Path, e: std::io::Error| ChronicleError::Durability {
        detail: format!("{context} {}: {e}", p.display()),
    };
    let bytes = image.encode();
    let tmp = dir.join(format!("ckpt-{:020}.tmp", image.lsn));
    let dest = dir.join(ckpt_name(image.lsn));
    {
        let mut f = vfs
            .create(&tmp)
            .map_err(|e| io("creating checkpoint", &tmp, e))?;
        f.write_all(&bytes)
            .map_err(|e| io("writing checkpoint", &tmp, e))?;
        if fsync {
            f.sync_data()
                .map_err(|e| io("syncing checkpoint", &tmp, e))?;
        }
    }
    vfs.rename(&tmp, &dest)
        .map_err(|e| io("publishing checkpoint", &dest, e))?;
    if fsync {
        sync_dir(vfs, dir)?;
    }
    let mut all = list_checkpoints(vfs, dir)?;
    while all.len() > keep.max(1) {
        let (_, old) = all.remove(0);
        let _ = vfs.remove_file(&old);
    }
    Ok(dest)
}

/// [`load_latest_with_vfs`] on the real filesystem.
pub fn load_latest(dir: &Path) -> Result<(Option<CheckpointImage>, usize)> {
    load_latest_with_vfs(&RealFs, dir)
}

/// Load the newest valid checkpoint in `dir`, skipping unreadable ones.
/// Returns the image (if any) and how many invalid files were skipped.
/// `.tmp` files from interrupted writes are ignored entirely.
pub fn load_latest_with_vfs(vfs: &dyn Vfs, dir: &Path) -> Result<(Option<CheckpointImage>, usize)> {
    let (image, skipped, _, _) =
        load_latest_salvaging_with_vfs(vfs, dir, RecoveryPolicy::Strict, false)?;
    Ok((image, skipped))
}

/// [`load_latest_with_vfs`], recovery-policy aware.
///
/// Both policies fall back past an undecodable newest image to the
/// previous generation (counting it in `skipped`); transient read faults
/// are retried with backoff either way. Salvage additionally moves each
/// undecodable image into `dir/quarantine/` (the returned paths) instead
/// of leaving it in place, and treats a *persistently* unreadable image as
/// one more file to skip rather than failing the open. An intact image
/// of another format is neither skipped nor quarantined: both policies
/// fail with [`ChronicleError::UnsupportedFormat`] naming the file.
///
/// The final element is the highest lsn named by a skipped or quarantined
/// image (0 when none was dropped): a checkpoint at lsn X proves records
/// `1..=X` were once durable, so a recovery that ends below X after
/// dropping it must confess the difference as loss.
pub fn load_latest_salvaging_with_vfs(
    vfs: &dyn Vfs,
    dir: &Path,
    policy: RecoveryPolicy,
    fsync: bool,
) -> Result<(Option<CheckpointImage>, usize, Vec<PathBuf>, u64)> {
    if !vfs.exists(dir) {
        return Ok((None, 0, Vec::new(), 0));
    }
    let salvage = policy == RecoveryPolicy::Salvage;
    let mut all = list_checkpoints(vfs, dir)?;
    let mut skipped = 0;
    let mut quarantined = Vec::new();
    let mut dropped_lsn = 0u64;
    while let Some((lsn, path)) = all.pop() {
        let bytes = match read_with_retry(vfs, &path) {
            Ok(bytes) => bytes,
            Err(e) if salvage => {
                let _ = e;
                skipped += 1;
                dropped_lsn = dropped_lsn.max(lsn);
                quarantined.push(quarantine_rename(vfs, dir, &path, fsync)?);
                continue;
            }
            Err(e) => {
                return Err(ChronicleError::Durability {
                    detail: format!("reading checkpoint {}: {e}", path.display()),
                });
            }
        };
        match CheckpointImage::decode(&bytes) {
            Ok(image) => return Ok((Some(image), skipped, quarantined, dropped_lsn)),
            Err(ChronicleError::Corruption { .. }) => {
                skipped += 1;
                dropped_lsn = dropped_lsn.max(lsn);
                if salvage {
                    quarantined.push(quarantine_rename(vfs, dir, &path, fsync)?);
                }
            }
            // An intact image of another format is not rot: falling back
            // past it would open (or quarantine) a well-formed database
            // to an older state, so both policies refuse it by name.
            Err(ChronicleError::UnsupportedFormat {
                found, supported, ..
            }) => {
                return Err(ChronicleError::UnsupportedFormat {
                    artifact: format!("checkpoint {}", path.display()),
                    found,
                    supported,
                });
            }
            Err(e) => return Err(e),
        }
    }
    Ok((None, skipped, quarantined, dropped_lsn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::tuple;

    fn sample(lsn: u64) -> CheckpointImage {
        CheckpointImage {
            lsn,
            tick: 99,
            ddl: vec![
                "CREATE GROUP g".into(),
                "CREATE CHRONICLE c (sn SEQ, x INT)".into(),
            ],
            groups: vec![GroupImage {
                name: "g".into(),
                high_water: SeqNo(7),
                last_at: Some(Chronon(70)),
                epoch: 3,
            }],
            chronicles: vec![ChronicleImage {
                name: "c".into(),
                total_appended: 7,
                last_seq: SeqNo(7),
                first_stored_seq: Some(SeqNo(5)),
                window: vec![tuple![SeqNo(5), 1i64], tuple![SeqNo(6), 2i64]],
            }],
            relations: vec![RelationImage {
                name: "r".into(),
                floor: SeqNo(2),
                base: vec![tuple![1i64, "a"]],
                log: vec![(SeqNo(3), true, tuple![2i64, "b"])],
            }],
            views: vec![("v".into(), vec![1, 2, 3])],
            term: 2,
            sessions: vec![4, 5, 6],
        }
    }

    #[test]
    fn image_round_trips() {
        let img = sample(12);
        assert_eq!(CheckpointImage::decode(&img.encode()).unwrap(), img);
        let empty = CheckpointImage::default();
        assert_eq!(CheckpointImage::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn legacy_periodic_section_is_refused() {
        // An image of the older format with one family in the periodic
        // section: the empty section's `u32 0` (the last four body bytes
        // of a default image) becomes a count of 1 and one entry.
        let empty = CheckpointImage::default().encode();
        let mut w = Writer::new();
        w.u32(1);
        w.str("p");
        w.bytes(&[9, 8]);
        let mut body = empty[..empty.len() - 8].to_vec();
        body.extend_from_slice(&w.into_bytes());
        let crc = crc32(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        match CheckpointImage::decode(&body) {
            Err(ChronicleError::UnsupportedFormat { found, .. }) => {
                assert!(found.contains("CHRP1"), "{found}")
            }
            other => panic!("legacy section must be refused, got {other:?}"),
        }
    }

    #[test]
    fn pre_term_images_decode_with_defaults() {
        // An image encoded without the trailing term/session fields (the
        // pre-failover format) must decode with term 0 and no sessions.
        let mut img = sample(12);
        img.term = 0;
        img.sessions = Vec::new();
        let bytes = img.encode();
        let with = {
            let mut i2 = img.clone();
            i2.term = 1;
            i2.encode()
        };
        assert!(bytes.len() < with.len(), "default fields must be omitted");
        assert_eq!(CheckpointImage::decode(&bytes).unwrap(), img);
    }

    #[test]
    fn bit_flips_are_detected() {
        let mut bytes = sample(5).encode();
        for i in (0..bytes.len()).step_by(7) {
            bytes[i] ^= 0x10;
            assert!(CheckpointImage::decode(&bytes).is_err(), "flip at {i}");
            bytes[i] ^= 0x10;
        }
        assert!(CheckpointImage::decode(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn write_load_prune() {
        let tmp = chronicle_testkit::TempDir::new("chronicle-ckpt");
        let dir = tmp.join("db");
        assert_eq!(load_latest(&dir).unwrap(), (None, 0));
        for lsn in [3, 9, 27] {
            write(&dir, &sample(lsn), 2, false).unwrap();
        }
        let (img, skipped) = load_latest(&dir).unwrap();
        assert_eq!(img.unwrap().lsn, 27);
        assert_eq!(skipped, 0);
        // Pruned to 2.
        assert_eq!(list_checkpoints(&RealFs, &dir).unwrap().len(), 2);
        // A corrupt newest falls back to the previous one.
        let newest = dir.join(ckpt_name(27));
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[10] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        let (img, skipped) = load_latest(&dir).unwrap();
        assert_eq!(img.unwrap().lsn, 9);
        assert_eq!(skipped, 1);
        // Leftover .tmp files are ignored.
        std::fs::write(dir.join("ckpt-00000000000000000099.tmp"), b"junk").unwrap();
        assert_eq!(load_latest(&dir).unwrap().0.unwrap().lsn, 9);
    }
}
