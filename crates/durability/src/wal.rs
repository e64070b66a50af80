//! Segmented write-ahead log.
//!
//! # On-disk format
//!
//! The log is a directory of segment files named `wal-{first_lsn:020}.seg`.
//! Each segment starts with a 16-byte header — the 8-byte magic
//! `b"CHRWAL01"` followed by the little-endian `u64` LSN of the first
//! record in the segment — and is followed by record frames:
//!
//! ```text
//! [u32 len][u32 crc][u64 lsn][payload...]
//!           \------- body: len bytes ------/
//! ```
//!
//! `len` counts the body (LSN + payload); `crc` is CRC-32 over the body.
//! LSNs are assigned contiguously starting at 1, so a valid log is a gap-
//! free sequence of records split across segments.
//!
//! # Torn-tail policy
//!
//! A crash can tear the *last* write: an incomplete frame or a CRC
//! mismatch at the end of the final segment is expected, and recovery
//! truncates the file back to the last valid record (the discarded bytes
//! were never acknowledged — acks happen after flush). The same damage
//! anywhere else cannot be explained by a torn write, so it is reported as
//! [`ChronicleError::Corruption`] and recovery refuses to proceed. One
//! exception: a missing *run* of segments that lies entirely at or below
//! the checkpoint floor is tolerated — checkpoint truncation unlinks
//! covered segments, and a crash can persist some of those unlinks but not
//! others, leaving a gap that the checkpoint fully covers.
//!
//! Appends are buffered in memory; [`Wal::flush`] writes the buffer to the
//! active segment in one `write` call (and `fdatasync`s it when the
//! `fsync` policy knob is on). Group commit falls out of this split: many
//! appends, one flush, then ack them all.
//!
//! All filesystem access goes through [`Vfs`]: production uses
//! [`RealFs`](chronicle_simkit::RealFs) (plain `std::fs`), the simulation
//! harness substitutes an in-memory filesystem with fault injection.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use chronicle_simkit::{RealFs, Vfs, VfsFile};
use chronicle_types::{mutate, ChronicleError, Result};

use crate::crc::crc32;
use crate::record::WalRecord;
use crate::retry::read_with_retry;
use crate::salvage::{LsnRange, QuarantinedSegment, RecoveryPolicy, SalvageReport};
use crate::DurabilityOptions;

pub(crate) const MAGIC: &[u8; 8] = b"CHRWAL01";
pub(crate) const HEADER_LEN: usize = 16;
/// Upper bound on one frame body; anything larger in a length field is
/// treated as garbage rather than allocated.
const MAX_BODY: u32 = 256 * 1024 * 1024;
/// Subdirectory of the WAL directory where salvage moves untrusted files.
pub(crate) const QUARANTINE_DIR: &str = "quarantine";

/// Counters describing WAL activity since open.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended (buffered or flushed).
    pub records: u64,
    /// Frame bytes appended.
    pub bytes: u64,
    /// Flush calls that wrote data.
    pub flushes: u64,
    /// Segment files created.
    pub segments_created: u64,
    /// Sealed segment files deleted by checkpoint truncation.
    pub segments_deleted: u64,
    /// Bytes discarded from a torn tail during the last open.
    pub torn_bytes_discarded: u64,
}

/// One live segment of the log, as tracked in memory — shipping consumers
/// enumerate these instead of poking at directory listings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentInfo {
    /// LSN of the first record in the segment (also encoded in its name
    /// and header).
    pub first_lsn: u64,
    /// LSN of the last *durable* record in the segment; `first_lsn - 1`
    /// if the (active) segment holds no flushed records yet.
    pub last_lsn: u64,
    /// `true` for sealed (immutable) segments, `false` for the active one.
    pub sealed: bool,
    /// Path of the segment file.
    pub path: PathBuf,
}

/// A byte range read out of a live segment by [`Wal::read_segment`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentRead {
    /// First LSN of the segment the bytes came from.
    pub first_lsn: u64,
    /// The requested bytes, starting at the requested offset. Shorter than
    /// asked (possibly empty) when the readable region ends first.
    pub bytes: Vec<u8>,
    /// Whether the segment is sealed. A sealed segment at
    /// `offset + bytes.len() == total_len` has been shipped completely;
    /// an active one may grow.
    pub sealed: bool,
    /// Readable length of the segment right now: the file size for sealed
    /// segments, the flushed (durable) length for the active one.
    pub total_len: u64,
}

/// Callback invoked with each segment the log seals; registered via
/// [`Wal::set_seal_hook`].
pub struct SealHook(Box<dyn FnMut(&SegmentInfo) + Send>);

impl std::fmt::Debug for SealHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("SealHook(..)")
    }
}

/// A segmented, CRC-checksummed write-ahead log.
#[derive(Debug)]
pub struct Wal {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    opts: DurabilityOptions,
    /// Sealed segments as `(first_lsn, path)`, ascending.
    sealed: Vec<(u64, PathBuf)>,
    active: Box<dyn VfsFile>,
    active_path: PathBuf,
    active_first_lsn: u64,
    active_len: u64,
    buf: Vec<u8>,
    buf_records: u64,
    next_lsn: u64,
    stats: WalStats,
    /// Set when a flush or rotation hit an I/O error. The records in
    /// flight were reported failed to the caller, so they must never
    /// reach the log afterwards: recovery may already have repaired the
    /// file and handed the same LSNs to a fresh log. A poisoned `Wal`
    /// refuses all further writes and its `Drop` is a no-op.
    poisoned: bool,
    /// What the open salvaged; `Some` iff opened with
    /// [`RecoveryPolicy::Salvage`].
    salvage: Option<SalvageReport>,
    /// Monotonic count of segments sealed by this handle; lets a polling
    /// shipper notice rotation without re-enumerating segments.
    seal_epoch: u64,
    /// Notification hook fired from [`Wal::rotate`] with each sealed
    /// segment.
    on_seal: Option<SealHook>,
    /// When set, [`Wal::truncate_through`] keeps every segment holding
    /// records at or above this LSN, regardless of the checkpoint floor —
    /// the shipping retention pin.
    retain_floor: Option<u64>,
}

fn io_err(context: &str, path: &Path, e: std::io::Error) -> ChronicleError {
    ChronicleError::Durability {
        detail: format!("{context} {}: {e}", path.display()),
    }
}

pub(crate) fn segment_name(first_lsn: u64) -> String {
    format!("wal-{first_lsn:020}.seg")
}

pub(crate) fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// How a frame failed to parse.
pub(crate) enum FrameError {
    /// Incomplete frame or CRC mismatch — a legitimate torn write if it is
    /// the last thing in the last segment.
    Torn(String),
    /// The frame checksummed correctly but its contents are wrong (LSN
    /// discontinuity, undecodable payload) — never explainable by a torn
    /// write.
    Corrupt(String),
}

/// Best-effort resynchronising scan: walk `bytes` looking for CRC-valid
/// frames at any offset (advancing one byte past anything that does not
/// parse) and return the highest LSN found. Used only by salvage to
/// *enumerate* what a damaged region contained — never to replay it: a
/// record after unexplained damage is not part of any recoverable prefix.
fn lenient_max_lsn(bytes: &[u8]) -> Option<u64> {
    let mut max = None;
    let mut pos = 0;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes"));
        if (8..=MAX_BODY).contains(&len) {
            let end = pos + 8 + len as usize;
            if end <= bytes.len() {
                let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
                let body = &bytes[pos + 8..end];
                if crc32(body) == crc {
                    let lsn = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
                    max = Some(max.map_or(lsn, |m: u64| m.max(lsn)));
                    pos = end;
                    continue;
                }
            }
        }
        pos += 1;
    }
    max
}

/// Pick a collision-free name for `name` inside the quarantine directory.
fn quarantine_target(vfs: &dyn Vfs, qdir: &Path, name: &str) -> PathBuf {
    let mut target = qdir.join(name);
    let mut n = 0;
    while vfs.exists(&target) {
        n += 1;
        target = qdir.join(format!("{name}.{n}"));
    }
    target
}

/// Move an untrusted file into `dir/quarantine/` (never delete it — the
/// operator may want it for forensics). Returns where it ended up.
pub(crate) fn quarantine_rename(
    vfs: &dyn Vfs,
    dir: &Path,
    path: &Path,
    fsync: bool,
) -> Result<PathBuf> {
    let qdir = dir.join(QUARANTINE_DIR);
    vfs.create_dir_all(&qdir)
        .map_err(|e| io_err("creating quarantine directory", &qdir, e))?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("untrusted")
        .to_string();
    let target = quarantine_target(vfs, &qdir, &name);
    if mutate("no_quarantine") {
        vfs.remove_file(path)
            .map_err(|e| io_err("removing untrusted file", path, e))?;
        return Ok(target);
    }
    vfs.rename(path, &target)
        .map_err(|e| io_err("quarantining file", path, e))?;
    if fsync {
        sync_dir(vfs, &qdir)?;
        sync_dir(vfs, dir)?;
    }
    Ok(target)
}

/// Write a copy of `data` into `dir/quarantine/` (used when the original
/// must stay in place, e.g. a final segment about to be truncated).
fn quarantine_copy(
    vfs: &dyn Vfs,
    dir: &Path,
    path: &Path,
    data: &[u8],
    fsync: bool,
) -> Result<PathBuf> {
    let qdir = dir.join(QUARANTINE_DIR);
    vfs.create_dir_all(&qdir)
        .map_err(|e| io_err("creating quarantine directory", &qdir, e))?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("untrusted")
        .to_string();
    let target = quarantine_target(vfs, &qdir, &name);
    if mutate("no_quarantine") {
        return Ok(target);
    }
    let mut f = vfs
        .create(&target)
        .map_err(|e| io_err("creating quarantine copy", &target, e))?;
    f.write_all(data)
        .map_err(|e| io_err("writing quarantine copy", &target, e))?;
    if fsync {
        f.sync_data()
            .map_err(|e| io_err("syncing quarantine copy", &target, e))?;
        sync_dir(vfs, &qdir)?;
    }
    Ok(target)
}

pub(crate) fn parse_frame(
    bytes: &[u8],
    expected_lsn: u64,
) -> std::result::Result<(usize, WalRecord), FrameError> {
    if bytes.len() < 8 {
        return Err(FrameError::Torn(format!(
            "{} trailing bytes, too short for a frame header",
            bytes.len()
        )));
    }
    let len = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let crc = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if !(8..=MAX_BODY).contains(&len) {
        return Err(FrameError::Torn(format!("implausible frame length {len}")));
    }
    let end = 8 + len as usize;
    if bytes.len() < end {
        return Err(FrameError::Torn(format!(
            "frame claims {len} body bytes but only {} remain",
            bytes.len() - 8
        )));
    }
    let body = &bytes[8..end];
    if crc32(body) != crc {
        return Err(FrameError::Torn(format!(
            "CRC mismatch on record lsn~{expected_lsn}"
        )));
    }
    let lsn = u64::from_le_bytes(body[0..8].try_into().expect("8 bytes"));
    if lsn != expected_lsn {
        return Err(FrameError::Corrupt(format!(
            "LSN discontinuity: expected {expected_lsn}, frame carries {lsn}"
        )));
    }
    let record = WalRecord::decode(&body[8..]).map_err(|e| {
        FrameError::Corrupt(format!(
            "record lsn {lsn} checksums but does not decode: {e}"
        ))
    })?;
    Ok((end, record))
}

impl Wal {
    /// Open (or create) the log in `dir` on the real filesystem. See
    /// [`Wal::open_with_vfs`].
    pub fn open(
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
        floor: u64,
    ) -> Result<(Wal, Vec<(u64, WalRecord)>)> {
        Self::open_with_vfs(RealFs::arc(), dir, opts, floor)
    }

    /// Open (or create) the log in `dir` over `vfs`, validating every
    /// segment.
    ///
    /// `floor` is the LSN through which the latest checkpoint already
    /// covers the state; records at or below it are validated but not
    /// returned. Returns the log handle plus the tail of records above the
    /// floor, in LSN order. A torn tail in the final segment is repaired
    /// by truncating the file; damage anywhere else is an error, except a
    /// segment gap that lies entirely at or below the floor (a partially
    /// persisted checkpoint truncation).
    pub fn open_with_vfs(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        opts: DurabilityOptions,
        floor: u64,
    ) -> Result<(Wal, Vec<(u64, WalRecord)>)> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)
            .map_err(|e| io_err("creating WAL directory", &dir, e))?;
        let salvage = opts.recovery == RecoveryPolicy::Salvage;
        let mut report = SalvageReport::default();

        let mut segs: Vec<(u64, PathBuf)> = vfs
            .list(&dir)
            .map_err(|e| io_err("listing WAL directory", &dir, e))?
            .into_iter()
            .filter_map(|path| {
                let first = parse_segment_name(path.file_name()?.to_str()?)?;
                Some((first, path))
            })
            .collect();
        segs.sort();

        let mut stats = WalStats::default();
        let mut tail = Vec::new();
        let mut kept: Vec<(u64, PathBuf)> = Vec::new();
        let mut expected: Option<u64> = None;
        // Salvage bookkeeping: when the chain stops at an unrecoverable
        // point, `stopped` holds the index of the first remaining segment
        // to quarantine plus the best loss evidence scanned so far.
        let mut stopped: Option<(usize, Option<u64>)> = None;
        let count = segs.len();
        let mut i = 0;
        'chain: while i < count {
            let last = i + 1 == count;
            let (named_first, path) = segs[i].clone();
            i += 1;
            let data = read_with_retry(vfs.as_ref(), &path)
                .map_err(|e| io_err("reading WAL segment", &path, e))?;

            let header_first = if data.len() >= HEADER_LEN && &data[..8] == MAGIC {
                Some(u64::from_le_bytes(data[8..16].try_into().expect("8 bytes")))
            } else {
                None
            };
            let untrusted: Option<String> = match header_first {
                None if last && !salvage && data.len() <= HEADER_LEN => {
                    // A crash while creating a fresh segment: nothing in it
                    // was ever acknowledged, so drop the file. Torn writes
                    // keep a byte prefix, so a longer file has its whole
                    // header on disk: a bad one there is rot over frames
                    // that may be acknowledged, refused below.
                    stats.torn_bytes_discarded += data.len() as u64;
                    vfs.remove_file(&path)
                        .map_err(|e| io_err("removing torn WAL segment", &path, e))?;
                    continue 'chain;
                }
                None if salvage => Some("corrupt segment header".into()),
                None => {
                    return Err(ChronicleError::Corruption {
                        detail: format!("WAL segment {} has a corrupt header", path.display()),
                    });
                }
                Some(first) if first != named_first => {
                    if salvage {
                        Some(format!(
                            "named for lsn {named_first} but its header says {first}"
                        ))
                    } else {
                        return Err(ChronicleError::Corruption {
                            detail: format!(
                                "WAL segment {} is named for lsn {named_first} but its header \
                                 says {first}",
                                path.display()
                            ),
                        });
                    }
                }
                Some(_) => None,
            };
            if let Some(reason) = untrusted {
                // Salvage only: the whole segment is untrusted. Move it
                // aside; whether the chain can continue depends on whether
                // the checkpoint already covers everything it could hold.
                let covered = i < count && segs[i].0 <= floor + 1;
                let evidence = lenient_max_lsn(&data);
                let q = quarantine_rename(vfs.as_ref(), &dir, &path, opts.fsync)?;
                report.segments_quarantined.push(QuarantinedSegment {
                    path: q,
                    first_lsn: named_first,
                    reason,
                });
                if covered {
                    continue 'chain;
                }
                let l = expected.unwrap_or(floor + 1).max(floor + 1);
                // A final segment holding nothing but a (rotted or torn)
                // header is the footprint of a crash while creating a fresh
                // segment: no record was ever written to it, so nothing
                // acknowledged is being dropped. Anything *with* frame
                // bytes is different — rot may have mangled records past
                // recognition (no CRC-valid frame left to serve as
                // evidence), so the discard must be confessed as potential
                // loss rather than silently absorbed.
                if !last || evidence.is_some_and(|m| m >= l) || data.len() > HEADER_LEN {
                    stopped = Some((i, evidence));
                    break 'chain;
                }
                continue 'chain;
            }
            let first = header_first.expect("header validated above");
            match expected {
                // A forward gap entirely at or below the checkpoint floor:
                // checkpoint truncation unlinked a covered segment and the
                // unlink persisted while an older segment's did not. Every
                // missing record is covered by the checkpoint, so the chain
                // safely restarts here.
                Some(exp) if first > exp && first <= floor + 1 => {}
                Some(exp) if first != exp => {
                    if salvage {
                        // This segment's records do not connect to the
                        // recovered prefix; it and everything after it are
                        // beyond saving.
                        let evidence = lenient_max_lsn(&data);
                        let q = quarantine_rename(vfs.as_ref(), &dir, &path, opts.fsync)?;
                        report.segments_quarantined.push(QuarantinedSegment {
                            path: q,
                            first_lsn: named_first,
                            reason: format!(
                                "segment sequence broken: expected a segment starting at lsn \
                                 {exp}, found {first}"
                            ),
                        });
                        stopped = Some((i, evidence));
                        break 'chain;
                    }
                    return Err(ChronicleError::Corruption {
                        detail: format!(
                            "WAL segment sequence broken: expected a segment starting at lsn \
                             {exp}, found {first}"
                        ),
                    });
                }
                None if first > floor + 1 => {
                    if salvage {
                        let evidence = lenient_max_lsn(&data);
                        let q = quarantine_rename(vfs.as_ref(), &dir, &path, opts.fsync)?;
                        report.segments_quarantined.push(QuarantinedSegment {
                            path: q,
                            first_lsn: named_first,
                            reason: format!(
                                "WAL gap: checkpoint covers through lsn {floor} but this \
                                 segment starts at lsn {first}"
                            ),
                        });
                        stopped = Some((i, evidence));
                        break 'chain;
                    }
                    return Err(ChronicleError::Corruption {
                        detail: format!(
                            "WAL gap: checkpoint covers through lsn {floor} but the oldest \
                             segment starts at lsn {first}"
                        ),
                    });
                }
                _ => {}
            }
            let mut lsn = first;
            let mut pos = HEADER_LEN;
            let mut damage: Option<FrameError> = None;
            while pos < data.len() {
                match parse_frame(&data[pos..], lsn) {
                    Ok((consumed, record)) => {
                        if lsn > floor {
                            tail.push((lsn, record));
                        }
                        lsn += 1;
                        pos += consumed;
                    }
                    Err(FrameError::Torn(_)) if last && !salvage => {
                        stats.torn_bytes_discarded += (data.len() - pos) as u64;
                        // The truncation must be durable before the fresh
                        // active segment below can accept new records:
                        // otherwise a later crash can resurrect the stale
                        // tail bytes next to newly acknowledged records in
                        // the following segment. Vfs::truncate persists.
                        vfs.truncate(&path, pos as u64)
                            .map_err(|e| io_err("truncating torn WAL segment", &path, e))?;
                        break;
                    }
                    Err(FrameError::Torn(detail)) if !salvage => {
                        return Err(ChronicleError::Corruption {
                            detail: format!(
                                "damage in non-final WAL segment {}: {detail}",
                                path.display()
                            ),
                        });
                    }
                    Err(FrameError::Corrupt(detail)) if !salvage => {
                        return Err(ChronicleError::Corruption {
                            detail: format!("WAL segment {}: {detail}", path.display()),
                        });
                    }
                    Err(e) => {
                        damage = Some(e);
                        break;
                    }
                }
            }
            if let Some(e) = damage {
                // Salvage only: the segment has a valid frame prefix and
                // unexplained damage at `pos` / lsn `lsn`.
                let detail = match &e {
                    FrameError::Torn(d) | FrameError::Corrupt(d) => d.clone(),
                };
                if i < count && segs[i].0 <= floor + 1 {
                    // Everything this segment could contribute is already
                    // checkpoint-covered; drop it from the chain and let
                    // the covered-gap rule restart at the next segment.
                    let q = quarantine_rename(vfs.as_ref(), &dir, &path, opts.fsync)?;
                    report.segments_quarantined.push(QuarantinedSegment {
                        path: q,
                        first_lsn: named_first,
                        reason: detail,
                    });
                    expected = Some(lsn);
                    continue 'chain;
                }
                let suffix_len = data.len() - pos;
                let evidence = lenient_max_lsn(&data[pos..]);
                // A plain torn final write (incomplete trailing frame, no
                // intact frame beyond it) is routine crash damage — keep
                // the repair quiet, exactly like Strict. Anything else is
                // bit rot: preserve the original bytes for forensics.
                let plain_torn = last && matches!(e, FrameError::Torn(_)) && evidence.is_none();
                if !plain_torn {
                    let q = quarantine_copy(vfs.as_ref(), &dir, &path, &data, opts.fsync)?;
                    report.segments_quarantined.push(QuarantinedSegment {
                        path: q,
                        first_lsn: named_first,
                        reason: detail,
                    });
                }
                // The maximal recoverable content of this segment is a
                // byte prefix of the original file, so the repair is an
                // in-place truncation (persisted by Vfs::truncate).
                stats.torn_bytes_discarded += suffix_len as u64;
                report.tail_bytes_discarded += suffix_len as u64;
                vfs.truncate(&path, pos as u64)
                    .map_err(|e| io_err("truncating damaged WAL segment", &path, e))?;
                expected = Some(lsn);
                kept.push((first, path));
                stopped = Some((i, evidence));
                break 'chain;
            }
            expected = Some(lsn);
            kept.push((first, path));
        }

        if let Some((from, mut evidence)) = stopped {
            // Quarantine every segment past the stop point, scanning each
            // (best effort) to enumerate how far the lost range extends. A
            // segment named for lsn X also proves records through X-1 were
            // once flushed — rotation seals the predecessor first.
            for (named, path) in segs.iter().take(count).skip(from).cloned() {
                if let Ok(d) = read_with_retry(vfs.as_ref(), &path) {
                    if let Some(m) = lenient_max_lsn(&d) {
                        evidence = Some(evidence.map_or(m, |e| e.max(m)));
                    }
                }
                if named > 1 {
                    evidence = Some(evidence.map_or(named - 1, |e| e.max(named - 1)));
                }
                let q = quarantine_rename(vfs.as_ref(), &dir, &path, opts.fsync)?;
                report.segments_quarantined.push(QuarantinedSegment {
                    path: q,
                    first_lsn: named,
                    reason: "beyond the first unrecoverable point".into(),
                });
            }
            let l = expected.unwrap_or(floor + 1).max(floor + 1);
            report.lost = Some(LsnRange {
                first: l,
                last: evidence.map_or(l, |m| m.max(l)),
            });
        }

        let next_lsn = expected.unwrap_or(floor + 1).max(floor + 1);
        report.replayed_through = next_lsn - 1;

        // Always start a fresh active segment. A header-only segment from a
        // previous open can collide on the name; recreating it loses
        // nothing, but it must not stay listed as sealed.
        let active_path = dir.join(segment_name(next_lsn));
        kept.retain(|(_, p)| *p != active_path);
        if opts.fsync {
            // Commit the kept chain before the new active segment becomes
            // durable below. Recovery may have replayed bytes that never
            // reached the medium (a replication follower's shipped-but-
            // unsealed segment, read back from the page cache): once a
            // durable successor exists, every kept segment is non-final,
            // and a power cut must not be able to leave one torn or
            // missing. `Vfs::truncate` persists the image it is given.
            for (_, path) in &kept {
                let len = vfs
                    .read(path)
                    .map_err(|e| io_err("reading WAL segment", path, e))?
                    .len() as u64;
                vfs.truncate(path, len)
                    .map_err(|e| io_err("persisting WAL segment", path, e))?;
            }
        }
        let mut active = vfs
            .create(&active_path)
            .map_err(|e| io_err("creating WAL segment", &active_path, e))?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&next_lsn.to_le_bytes());
        active
            .write_all(&header)
            .map_err(|e| io_err("writing WAL segment header", &active_path, e))?;
        stats.segments_created += 1;
        if opts.fsync {
            active
                .sync_data()
                .map_err(|e| io_err("syncing WAL segment", &active_path, e))?;
            sync_dir(vfs.as_ref(), &dir)?;
        }

        Ok((
            Wal {
                vfs,
                dir,
                opts,
                sealed: kept,
                active,
                active_path,
                active_first_lsn: next_lsn,
                active_len: HEADER_LEN as u64,
                buf: Vec::new(),
                buf_records: 0,
                next_lsn,
                stats,
                poisoned: false,
                salvage: salvage.then_some(report),
                seal_epoch: 0,
                on_seal: None,
                retain_floor: None,
            },
            tail,
        ))
    }

    /// Append a record to the in-memory buffer; returns its LSN. The
    /// record is durable only after the next [`Wal::flush`].
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64> {
        self.check_poisoned()?;
        let lsn = self.next_lsn;
        let payload = rec.encode();
        let mut body = Vec::with_capacity(8 + payload.len());
        body.extend_from_slice(&lsn.to_le_bytes());
        body.extend_from_slice(&payload);
        let frame_len = 8 + body.len();

        // Seal the current segment first if this record would push it past
        // the configured size; a single oversized record is still allowed
        // in an otherwise-empty segment.
        let pending = self.active_len + self.buf.len() as u64;
        if pending > HEADER_LEN as u64 && pending + frame_len as u64 > self.opts.segment_bytes {
            self.rotate()?;
        }

        self.buf
            .extend_from_slice(&(body.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(&body).to_le_bytes());
        self.buf.extend_from_slice(&body);
        self.buf_records += 1;
        self.next_lsn += 1;
        self.stats.records += 1;
        self.stats.bytes += frame_len as u64;
        Ok(lsn)
    }

    /// Write all buffered records to the active segment (one write, one
    /// optional `fdatasync`). Returns how many records were flushed.
    ///
    /// An I/O error here **poisons** the log: the buffered records were
    /// just reported failed, so retrying them later — from a subsequent
    /// call or from `Drop` — would append records the caller believes
    /// lost, possibly after recovery has already repaired this very file
    /// and reissued the same LSNs to a fresh segment. The buffer is
    /// discarded and every further write refuses with an error; the only
    /// way forward is to reopen the database.
    pub fn flush(&mut self) -> Result<u64> {
        self.check_poisoned()?;
        if self.buf.is_empty() {
            return Ok(0);
        }
        if let Err(e) = self.active.write_all(&self.buf) {
            self.poison();
            return Err(io_err("writing WAL segment", &self.active_path, e));
        }
        self.active_len += self.buf.len() as u64;
        let n = self.buf_records;
        self.buf.clear();
        self.buf_records = 0;
        if self.opts.fsync {
            if let Err(e) = self.active.sync_data() {
                // Post-fsync-failure page-cache state is unknowable; never
                // trust this handle again.
                self.poison();
                return Err(io_err("syncing WAL segment", &self.active_path, e));
            }
        }
        self.stats.flushes += 1;
        Ok(n)
    }

    fn poison(&mut self) {
        self.poisoned = true;
        self.buf.clear();
        self.buf_records = 0;
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            return Err(ChronicleError::Durability {
                detail: "WAL poisoned by an earlier I/O failure; reopen the database to recover"
                    .into(),
            });
        }
        Ok(())
    }

    /// Seal the active segment and start a new one at the next LSN.
    ///
    /// An error once the new segment may exist on disk poisons the log:
    /// appending to the *old* active segment with a later-named segment
    /// already present would fork the chain (two segments claiming the
    /// same LSNs on the next recovery).
    pub fn rotate(&mut self) -> Result<()> {
        self.flush()?;
        if self.active_first_lsn == self.next_lsn {
            // The active segment holds no records: a new segment would get
            // the very same name (truncating the live file out from under
            // us). There is nothing to seal; rotating is a no-op.
            return Ok(());
        }
        let new_path = self.dir.join(segment_name(self.next_lsn));
        let mut file = match self.vfs.create(&new_path) {
            Ok(f) => f,
            Err(e) => {
                self.poison();
                return Err(io_err("creating WAL segment", &new_path, e));
            }
        };
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&self.next_lsn.to_le_bytes());
        if let Err(e) = file.write_all(&header) {
            self.poison();
            return Err(io_err("writing WAL segment header", &new_path, e));
        }
        if self.opts.fsync {
            if let Err(e) = file.sync_data() {
                self.poison();
                return Err(io_err("syncing WAL segment", &new_path, e));
            }
            if let Err(e) = sync_dir(self.vfs.as_ref(), &self.dir) {
                self.poison();
                return Err(e);
            }
        }
        let old_path = std::mem::replace(&mut self.active_path, new_path);
        let sealed_info = SegmentInfo {
            first_lsn: self.active_first_lsn,
            // `flush` above drained the buffer, so every record through
            // `next_lsn - 1` is in the file being sealed.
            last_lsn: self.next_lsn - 1,
            sealed: true,
            path: old_path.clone(),
        };
        self.sealed.push((self.active_first_lsn, old_path));
        self.active = file;
        self.active_first_lsn = self.next_lsn;
        self.active_len = HEADER_LEN as u64;
        self.stats.segments_created += 1;
        self.seal_epoch += 1;
        if let Some(hook) = self.on_seal.as_mut() {
            (hook.0)(&sealed_info);
        }
        Ok(())
    }

    /// Delete sealed segments whose every record has LSN ≤ `lsn` (i.e. is
    /// covered by a checkpoint). The active segment is never deleted, and
    /// a [`Wal::set_retain_floor`] pin further caps what may go.
    pub fn truncate_through(&mut self, lsn: u64) -> Result<()> {
        let lsn = match self.retain_floor {
            Some(f) => lsn.min(f.saturating_sub(1)),
            None => lsn,
        };
        let mut keep = Vec::with_capacity(self.sealed.len());
        for i in 0..self.sealed.len() {
            let next_first = self
                .sealed
                .get(i + 1)
                .map(|s| s.0)
                .unwrap_or(self.active_first_lsn);
            let (first, path) = &self.sealed[i];
            // The segment's last record has LSN next_first - 1.
            if next_first > *first && next_first - 1 <= lsn {
                self.vfs
                    .remove_file(path)
                    .map_err(|e| io_err("deleting covered WAL segment", path, e))?;
                self.stats.segments_deleted += 1;
            } else {
                keep.push((*first, path.clone()));
            }
        }
        self.sealed = keep;
        if self.opts.fsync {
            sync_dir(self.vfs.as_ref(), &self.dir)?;
        }
        Ok(())
    }

    /// LSN of the most recently appended record (0 if none ever).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Number of records appended but not yet flushed.
    pub fn unflushed(&self) -> u64 {
        self.buf_records
    }

    /// LSN of the last record written to the active segment file (0 if
    /// none ever). Records past this are buffered only; a shipper must
    /// never send them — a crash-recovered leader would not have them,
    /// leaving the follower ahead of its own leader.
    pub fn last_durable_lsn(&self) -> u64 {
        self.next_lsn - 1 - self.buf_records
    }

    /// Number of segments this handle has sealed since open. Monotonic;
    /// a polling shipper compares epochs to detect rotation cheaply.
    pub fn seal_epoch(&self) -> u64 {
        self.seal_epoch
    }

    /// Register a callback fired from [`Wal::rotate`] with each newly
    /// sealed segment (replacing any previous hook).
    pub fn set_seal_hook(&mut self, hook: impl FnMut(&SegmentInfo) + Send + 'static) {
        self.on_seal = Some(SealHook(Box::new(hook)));
    }

    /// Pin every record with LSN ≥ `lsn` against checkpoint truncation,
    /// so a shipping leader never deletes segments a follower still
    /// needs. Replaces any previous pin.
    pub fn set_retain_floor(&mut self, lsn: u64) {
        self.retain_floor = Some(lsn);
    }

    /// Drop the retention pin; the next checkpoint truncates normally.
    pub fn clear_retain_floor(&mut self) {
        self.retain_floor = None;
    }

    /// Enumerate the live segments (sealed then active, ascending by
    /// first LSN) from in-memory state — no directory listing involved.
    pub fn segments(&self) -> Vec<SegmentInfo> {
        let mut out = Vec::with_capacity(self.sealed.len() + 1);
        for i in 0..self.sealed.len() {
            let next_first = self
                .sealed
                .get(i + 1)
                .map(|s| s.0)
                .unwrap_or(self.active_first_lsn);
            let (first, path) = &self.sealed[i];
            out.push(SegmentInfo {
                first_lsn: *first,
                last_lsn: next_first - 1,
                sealed: true,
                path: path.clone(),
            });
        }
        out.push(SegmentInfo {
            first_lsn: self.active_first_lsn,
            last_lsn: self.last_durable_lsn().max(self.active_first_lsn - 1),
            sealed: false,
            path: self.active_path.clone(),
        });
        out
    }

    /// The live segment whose LSN range contains `lsn`. Any `lsn` at or
    /// past the active segment's first LSN maps to the active segment
    /// (that is where a record with that LSN would land), so a shipper
    /// waiting at the durable frontier still gets a valid cursor. Returns
    /// `None` when the covering segment was checkpoint-truncated away.
    pub fn segment_containing(&self, lsn: u64) -> Option<SegmentInfo> {
        let segs = self.segments();
        if lsn >= self.active_first_lsn {
            return segs.last().cloned();
        }
        let idx = segs.partition_point(|s| s.first_lsn <= lsn);
        if idx == 0 {
            return None;
        }
        let s = &segs[idx - 1];
        (s.first_lsn <= lsn && lsn <= s.last_lsn).then(|| s.clone())
    }

    /// Read up to `max` bytes of the segment whose first LSN is
    /// `first_lsn`, starting at byte `offset`. For the active segment only
    /// the flushed (durable) prefix is readable — see
    /// [`Wal::last_durable_lsn`] for why buffered bytes must never ship.
    pub fn read_segment(&self, first_lsn: u64, offset: u64, max: usize) -> Result<SegmentRead> {
        let (path, sealed, limit) = if first_lsn == self.active_first_lsn {
            (self.active_path.clone(), false, Some(self.active_len))
        } else if let Ok(i) = self.sealed.binary_search_by_key(&first_lsn, |s| s.0) {
            (self.sealed[i].1.clone(), true, None)
        } else {
            return Err(ChronicleError::Durability {
                detail: format!("WAL segment starting at lsn {first_lsn} is not live"),
            });
        };
        let data = read_with_retry(self.vfs.as_ref(), &path)
            .map_err(|e| io_err("reading WAL segment", &path, e))?;
        let total = limit.map_or(data.len() as u64, |l| l.min(data.len() as u64));
        let start = offset.min(total);
        let end = total.min(start.saturating_add(max as u64));
        Ok(SegmentRead {
            first_lsn,
            bytes: data[start as usize..end as usize].to_vec(),
            sealed,
            total_len: total,
        })
    }

    /// Activity counters.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// What the open salvaged; `Some` iff the log was opened with
    /// [`RecoveryPolicy::Salvage`].
    pub fn salvage_report(&self) -> Option<&SalvageReport> {
        self.salvage.as_ref()
    }

    /// Number of segment files currently live (sealed + active).
    pub fn segment_count(&self) -> usize {
        self.sealed.len() + 1
    }

    /// The log directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl Drop for Wal {
    fn drop(&mut self) {
        // `flush` refuses on a poisoned log, so a handle whose last flush
        // failed cannot resurrect its discarded records here — recovery
        // may already have repaired the file and reissued those LSNs.
        let _ = self.flush();
    }
}

/// fsync a directory so renames/creates/unlinks inside it are durable.
pub(crate) fn sync_dir(vfs: &dyn Vfs, dir: &Path) -> Result<()> {
    vfs.sync_dir(dir)
        .map_err(|e| io_err("syncing directory", dir, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_simkit::SimFs;
    use chronicle_testkit::TempDir;
    use chronicle_types::{tuple, Chronon, SeqNo};
    use std::fs;

    fn rec(i: u64) -> WalRecord {
        WalRecord::Append {
            chronicle: "c".into(),
            seq: SeqNo(i),
            at: Chronon(i as i64),
            tuples: vec![tuple![SeqNo(i), i as i64]],
        }
    }

    #[test]
    fn append_flush_reopen_round_trip() {
        let tmp = TempDir::new("chronicle-wal-roundtrip");
        let dir = tmp.path();
        {
            let (mut wal, tail) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
            assert!(tail.is_empty());
            for i in 1..=10 {
                assert_eq!(wal.append(&rec(i)).unwrap(), i);
            }
            assert_eq!(wal.flush().unwrap(), 10);
            assert_eq!(wal.flush().unwrap(), 0);
        }
        let (wal, tail) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
        assert_eq!(tail.len(), 10);
        for (i, (lsn, r)) in tail.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(*r, rec(*lsn));
        }
        assert_eq!(wal.last_lsn(), 10);
    }

    #[test]
    fn floor_filters_tail() {
        let tmp = TempDir::new("chronicle-wal-floor");
        let dir = tmp.path();
        {
            let (mut wal, _) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
            for i in 1..=6 {
                wal.append(&rec(i)).unwrap();
            }
            wal.flush().unwrap();
        }
        let (_, tail) = Wal::open(dir, DurabilityOptions::default(), 4).unwrap();
        assert_eq!(tail.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![5, 6]);
    }

    #[test]
    fn unflushed_records_are_lost_not_corrupt() {
        let tmp = TempDir::new("chronicle-wal-unflushed");
        let dir = tmp.path();
        {
            let (mut wal, _) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
            wal.append(&rec(1)).unwrap();
            wal.flush().unwrap();
            wal.append(&rec(2)).unwrap();
            // Simulate a crash before flush: forget the buffer.
            wal.buf.clear();
            wal.buf_records = 0;
        }
        let (_, tail) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
        assert_eq!(tail.len(), 1);
    }

    #[test]
    fn segments_rotate_by_size_and_truncate() {
        let tmp = TempDir::new("chronicle-wal-rotate");
        let dir = tmp.path();
        let opts = DurabilityOptions {
            segment_bytes: 128,
            ..DurabilityOptions::default()
        };
        let (mut wal, _) = Wal::open(dir, opts, 0).unwrap();
        for i in 1..=40 {
            wal.append(&rec(i)).unwrap();
            wal.flush().unwrap();
        }
        assert!(wal.segment_count() > 3, "tiny segments should have rotated");
        let before = wal.segment_count();
        wal.rotate().unwrap();
        wal.truncate_through(35).unwrap();
        assert!(wal.segment_count() < before);
        drop(wal);
        // Everything above the checkpoint floor survives truncation.
        let (_, tail) = Wal::open(dir, opts, 35).unwrap();
        assert_eq!(tail.first().map(|(l, _)| *l), Some(36));
        assert_eq!(tail.last().map(|(l, _)| *l), Some(40));
    }

    #[test]
    fn gap_below_floor_is_detected() {
        let tmp = TempDir::new("chronicle-wal-gap");
        let dir = tmp.path();
        let opts = DurabilityOptions {
            segment_bytes: 128,
            ..DurabilityOptions::default()
        };
        {
            let (mut wal, _) = Wal::open(dir, opts, 0).unwrap();
            for i in 1..=20 {
                wal.append(&rec(i)).unwrap();
                wal.flush().unwrap();
            }
            wal.rotate().unwrap();
            wal.truncate_through(15).unwrap();
        }
        // Claiming a floor of 0 when lsns 1..=15 are gone must fail.
        let err = Wal::open(dir, opts, 0).unwrap_err();
        assert!(matches!(err, ChronicleError::Corruption { .. }), "{err}");
        // The true floor is fine.
        assert!(Wal::open(dir, opts, 15).is_ok());
    }

    #[test]
    fn mid_chain_gap_covered_by_floor_is_tolerated() {
        // Checkpoint truncation unlinks covered segments; a crash can
        // persist some unlinks but not others, resurrecting an *older*
        // covered segment while a middle one stays gone. As long as the
        // hole sits at or below the floor, recovery must proceed.
        let tmp = TempDir::new("chronicle-wal-midgap");
        let dir = tmp.path();
        let opts = DurabilityOptions {
            segment_bytes: 96,
            ..DurabilityOptions::default()
        };
        {
            let (mut wal, _) = Wal::open(dir, opts, 0).unwrap();
            for i in 1..=12 {
                wal.append(&rec(i)).unwrap();
                wal.flush().unwrap();
            }
        }
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        assert!(segs.len() >= 3, "need a middle segment to delete");
        // Records in the first two segments: parse the second segment's
        // header for its first LSN; everything before the third segment's
        // first LSN is "covered".
        let third_first =
            u64::from_le_bytes(fs::read(&segs[2]).unwrap()[8..16].try_into().unwrap());
        fs::remove_file(&segs[1]).unwrap();
        let floor = third_first - 1;
        let (_, tail) = Wal::open(dir, opts, floor).unwrap();
        assert_eq!(tail.first().map(|(l, _)| *l), Some(floor + 1));
        assert_eq!(tail.last().map(|(l, _)| *l), Some(12));
        // The same hole above the floor is still loud.
        let err = Wal::open(dir, opts, 0).unwrap_err();
        assert!(matches!(err, ChronicleError::Corruption { .. }), "{err}");
    }

    #[test]
    fn torn_tail_is_truncated_every_cut_point() {
        let tmp = TempDir::new("chronicle-wal-torn");
        let dir = tmp.path();
        {
            let (mut wal, _) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
            for i in 1..=3 {
                wal.append(&rec(i)).unwrap();
            }
            wal.flush().unwrap();
        }
        let seg = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .find(|p| p.extension().is_some_and(|x| x == "seg"))
            .unwrap();
        let full = fs::read(&seg).unwrap();
        // Find where record 3's frame starts by reparsing lengths.
        let mut offsets = vec![HEADER_LEN];
        let mut pos = HEADER_LEN;
        while pos < full.len() {
            let len = u32::from_le_bytes(full[pos..pos + 4].try_into().unwrap()) as usize;
            pos += 8 + len;
            offsets.push(pos);
        }
        let rec3_start = offsets[2];
        for cut in rec3_start + 1..full.len() {
            fs::write(&seg, &full[..cut]).unwrap();
            let (wal, tail) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
            assert_eq!(tail.len(), 2, "cut at {cut}");
            assert!(wal.stats().torn_bytes_discarded > 0);
            drop(wal);
            // Remove the fresh segment the open created so the next
            // iteration sees only the original file.
            for e in fs::read_dir(dir).unwrap() {
                let p = e.unwrap().path();
                if p != seg {
                    fs::remove_file(p).unwrap();
                }
            }
            fs::write(&seg, &full).unwrap();
        }
    }

    #[test]
    fn mid_log_damage_is_loud() {
        let tmp = TempDir::new("chronicle-wal-midlog");
        let dir = tmp.path();
        let opts = DurabilityOptions {
            segment_bytes: 96,
            ..DurabilityOptions::default()
        };
        {
            let (mut wal, _) = Wal::open(dir, opts, 0).unwrap();
            for i in 1..=12 {
                wal.append(&rec(i)).unwrap();
                wal.flush().unwrap();
            }
        }
        // Flip one payload bit in the FIRST segment (not the last).
        let mut segs: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        segs.sort();
        assert!(segs.len() >= 2);
        let mut data = fs::read(&segs[0]).unwrap();
        let n = data.len();
        data[n - 1] ^= 0x01;
        fs::write(&segs[0], &data).unwrap();
        let err = Wal::open(dir, opts, 0).unwrap_err();
        assert!(matches!(err, ChronicleError::Corruption { .. }), "{err}");
    }

    #[test]
    fn failed_flush_poisons_wal_and_drop_appends_nothing() {
        // The zombie-handle scenario the simulator found (seed 0): a flush
        // dies mid-write, recovery repairs the torn tail and reissues the
        // lost LSN into a fresh segment — and only then is the old handle
        // dropped. Its buffered frame must NOT come back from the dead:
        // the repaired segment would grow a frame whose LSN the new
        // active segment also carries, forking the chain.
        let fs = SimFs::new(42);
        let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
        let opts = DurabilityOptions {
            fsync: true,
            ..DurabilityOptions::default()
        };
        let dir = Path::new("/db/wal");
        let (mut wal, _) = Wal::open_with_vfs(Arc::clone(&vfs), dir, opts, 0).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.flush().unwrap();
        wal.append(&rec(2)).unwrap();
        fs.set_crash_after(1); // the flush's write dies mid-syscall
        assert!(wal.flush().is_err());
        fs.crash_and_restore();

        // The poisoned handle refuses everything but dropping.
        let msg = wal.append(&rec(3)).unwrap_err().to_string();
        assert!(msg.contains("poisoned"), "unexpected error: {msg}");
        assert!(wal.flush().is_err());
        assert!(wal.rotate().is_err());

        // Recovery on the crash-consistent disk: record 1 survives,
        // record 2 (never acknowledged) is repaired away, and a fresh
        // active segment takes over its LSN.
        let (wal2, tail) = Wal::open_with_vfs(Arc::clone(&vfs), dir, opts, 0).unwrap();
        assert_eq!(tail.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![1]);

        let snapshot = |fs: &SimFs| -> Vec<(PathBuf, Vec<u8>)> {
            let mut files: Vec<_> = fs
                .live_files()
                .into_iter()
                .map(|p| (p.clone(), fs.peek(&p).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = snapshot(&fs);
        drop(wal); // the zombie handle dies; the disk must not move
        assert_eq!(snapshot(&fs), before);

        drop(wal2);
        let (_, tail) = Wal::open_with_vfs(vfs, dir, opts, 0).unwrap();
        assert_eq!(tail.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![1]);
    }

    /// Decode every frame in a raw segment byte string (header + frames),
    /// returning the LSNs. Panics on any damage — these tests only feed it
    /// segments the log claims are clean.
    fn lsns_in_segment(bytes: &[u8], first_lsn: u64) -> Vec<u64> {
        assert_eq!(&bytes[..8], MAGIC);
        assert_eq!(
            u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
            first_lsn
        );
        let mut lsns = Vec::new();
        let mut pos = HEADER_LEN;
        let mut lsn = first_lsn;
        while pos < bytes.len() {
            let (consumed, _) = match parse_frame(&bytes[pos..], lsn) {
                Ok(ok) => ok,
                Err(FrameError::Torn(d) | FrameError::Corrupt(d)) => {
                    panic!("unexpected damage at lsn {lsn}: {d}")
                }
            };
            lsns.push(lsn);
            lsn += 1;
            pos += consumed;
        }
        lsns
    }

    #[test]
    fn segments_enumeration_tracks_rotation() {
        let tmp = TempDir::new("chronicle-wal-segments");
        let opts = DurabilityOptions {
            segment_bytes: 128,
            ..DurabilityOptions::default()
        };
        let (mut wal, _) = Wal::open(tmp.path(), opts, 0).unwrap();
        assert_eq!(wal.seal_epoch(), 0);
        for i in 1..=40 {
            wal.append(&rec(i)).unwrap();
            wal.flush().unwrap();
        }
        let segs = wal.segments();
        assert_eq!(segs.len(), wal.segment_count());
        assert_eq!(wal.seal_epoch(), segs.len() as u64 - 1);
        // The enumeration is a contiguous chain covering exactly 1..=40.
        assert_eq!(segs[0].first_lsn, 1);
        for pair in segs.windows(2) {
            assert_eq!(pair[1].first_lsn, pair[0].last_lsn + 1);
            assert!(pair[0].sealed);
        }
        let active = segs.last().unwrap();
        assert!(!active.sealed);
        assert_eq!(active.last_lsn, 40);
        assert_eq!(wal.last_durable_lsn(), 40);
        // A buffered (unflushed) record is not durable and not enumerated.
        wal.append(&rec(41)).unwrap();
        assert_eq!(wal.last_durable_lsn(), 40);
        assert_eq!(wal.segments().last().unwrap().last_lsn, 40);
        wal.flush().unwrap();
        assert_eq!(wal.last_durable_lsn(), 41);
        assert_eq!(wal.segments().last().unwrap().last_lsn, 41);
    }

    #[test]
    fn seal_hook_fires_with_each_sealed_segment() {
        use std::sync::Mutex;
        let tmp = TempDir::new("chronicle-wal-sealhook");
        let opts = DurabilityOptions {
            segment_bytes: 128,
            ..DurabilityOptions::default()
        };
        let (mut wal, _) = Wal::open(tmp.path(), opts, 0).unwrap();
        let sealed: Arc<Mutex<Vec<SegmentInfo>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&sealed);
        wal.set_seal_hook(move |info| sink.lock().unwrap().push(info.clone()));
        for i in 1..=40 {
            wal.append(&rec(i)).unwrap();
            wal.flush().unwrap();
        }
        wal.rotate().unwrap();
        let sealed = sealed.lock().unwrap();
        assert_eq!(sealed.len() as u64, wal.seal_epoch());
        assert!(sealed.len() >= 3, "tiny segments should have rotated");
        // Each notification names a contiguous, sealed LSN range, and the
        // notified ranges chain end to end starting at 1.
        let mut next = 1;
        for info in sealed.iter() {
            assert!(info.sealed);
            assert_eq!(info.first_lsn, next);
            assert!(info.last_lsn >= info.first_lsn);
            next = info.last_lsn + 1;
        }
        assert_eq!(next, 41);
        // Every notified segment matches the enumeration's view of it.
        let segs = wal.segments();
        for info in sealed.iter() {
            assert_eq!(
                segs.iter().find(|s| s.first_lsn == info.first_lsn),
                Some(info)
            );
        }
    }

    #[test]
    fn segments_reflect_torn_tail_repair() {
        let tmp = TempDir::new("chronicle-wal-segtorn");
        let dir = tmp.path();
        {
            let (mut wal, _) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
            for i in 1..=3 {
                wal.append(&rec(i)).unwrap();
            }
            wal.flush().unwrap();
        }
        // Tear the last frame: cut the (single) segment mid-record-3.
        let seg = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .max()
            .unwrap();
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..full.len() - 3]).unwrap();
        let (wal, tail) = Wal::open(dir, DurabilityOptions::default(), 0).unwrap();
        assert_eq!(tail.len(), 2);
        // The enumeration sees the repaired world: the old segment sealed
        // with exactly the surviving records, the fresh active one empty.
        let segs = wal.segments();
        assert_eq!(segs.len(), 2);
        assert_eq!((segs[0].first_lsn, segs[0].last_lsn), (1, 2));
        assert!(segs[0].sealed);
        assert_eq!((segs[1].first_lsn, segs[1].last_lsn), (3, 2));
        assert!(!segs[1].sealed);
        // Reading the repaired segment yields exactly records 1..=2; the
        // torn bytes are gone from what shipping would see.
        let read = wal.read_segment(1, 0, usize::MAX).unwrap();
        assert!(read.sealed);
        assert_eq!(read.total_len, read.bytes.len() as u64);
        assert_eq!(lsns_in_segment(&read.bytes, 1), vec![1, 2]);
    }

    #[test]
    fn read_segment_exposes_only_flushed_bytes() {
        let tmp = TempDir::new("chronicle-wal-readdurable");
        let (mut wal, _) = Wal::open(tmp.path(), DurabilityOptions::default(), 0).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.flush().unwrap();
        wal.append(&rec(2)).unwrap(); // buffered, not durable
        let read = wal.read_segment(1, 0, usize::MAX).unwrap();
        assert!(!read.sealed);
        assert_eq!(lsns_in_segment(&read.bytes, 1), vec![1]);
        wal.flush().unwrap();
        let read = wal.read_segment(1, 0, usize::MAX).unwrap();
        assert_eq!(lsns_in_segment(&read.bytes, 1), vec![1, 2]);
        // Chunked reads stitch back to the same bytes.
        let mut stitched = Vec::new();
        let mut offset = 0;
        loop {
            let chunk = wal.read_segment(1, offset, 7).unwrap();
            assert_eq!(chunk.total_len, read.total_len);
            if chunk.bytes.is_empty() {
                break;
            }
            offset += chunk.bytes.len() as u64;
            stitched.extend_from_slice(&chunk.bytes);
        }
        assert_eq!(stitched, read.bytes);
    }

    #[test]
    fn segment_containing_resolves_across_truncation() {
        let tmp = TempDir::new("chronicle-wal-containing");
        let opts = DurabilityOptions {
            segment_bytes: 128,
            ..DurabilityOptions::default()
        };
        let (mut wal, _) = Wal::open(tmp.path(), opts, 0).unwrap();
        for i in 1..=40 {
            wal.append(&rec(i)).unwrap();
            wal.flush().unwrap();
        }
        for lsn in 1..=40 {
            let seg = wal.segment_containing(lsn).expect("live record");
            assert!(seg.first_lsn <= lsn && lsn <= seg.last_lsn, "lsn {lsn}");
        }
        // The durable frontier (where the next record will land) resolves
        // to the active segment.
        assert!(!wal.segment_containing(41).unwrap().sealed);
        wal.rotate().unwrap();
        wal.truncate_through(20).unwrap();
        let floor = wal.segments().first().unwrap().first_lsn;
        assert!(floor > 1, "truncation should have deleted a prefix");
        assert!(wal.segment_containing(floor - 1).is_none());
        assert!(wal.segment_containing(floor).is_some());
    }

    #[test]
    fn retain_floor_pins_segments_against_truncation() {
        let tmp = TempDir::new("chronicle-wal-retain");
        let opts = DurabilityOptions {
            segment_bytes: 128,
            ..DurabilityOptions::default()
        };
        let (mut wal, _) = Wal::open(tmp.path(), opts, 0).unwrap();
        for i in 1..=40 {
            wal.append(&rec(i)).unwrap();
            wal.flush().unwrap();
        }
        wal.rotate().unwrap();
        let before = wal.segment_count();
        wal.set_retain_floor(1);
        wal.truncate_through(40).unwrap();
        assert_eq!(wal.segment_count(), before, "pin must block deletion");
        assert!(wal.segment_containing(1).is_some());
        // A higher pin lets the prefix below it go.
        wal.set_retain_floor(21);
        wal.truncate_through(40).unwrap();
        let floor = wal.segments().first().unwrap().first_lsn;
        assert!(floor > 1 && floor <= 21, "floor {floor}");
        assert!(wal.segment_containing(21).is_some());
        // Clearing the pin restores normal truncation.
        wal.clear_retain_floor();
        wal.truncate_through(40).unwrap();
        assert_eq!(wal.segment_count(), 1);
    }

    #[test]
    fn wal_over_simfs_round_trips() {
        // The same WAL code, zero disk: write, "crash" with everything
        // synced, reopen, and the tail is intact.
        let fs = SimFs::new(77);
        let opts = DurabilityOptions {
            fsync: true,
            ..DurabilityOptions::default()
        };
        let dir = Path::new("/db/wal");
        {
            let (mut wal, tail) = Wal::open_with_vfs(Arc::new(fs.clone()), dir, opts, 0).unwrap();
            assert!(tail.is_empty());
            for i in 1..=5 {
                wal.append(&rec(i)).unwrap();
            }
            wal.flush().unwrap();
        }
        fs.crash_and_restore();
        let (_, tail) = Wal::open_with_vfs(Arc::new(fs.clone()), dir, opts, 0).unwrap();
        assert_eq!(tail.len(), 5);
    }
}
