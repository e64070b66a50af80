//! Follower-side WAL ingest.
//!
//! A replication follower receives *raw segment bytes* from its leader —
//! exactly the frames [`crate::Wal`] wrote, header included — and must
//! (a) persist them locally so a follower crash recovers through the
//! normal WAL recovery path, and (b) decode complete frames incrementally
//! so records can be applied to the follower's in-memory views as they
//! arrive.
//!
//! [`WalIngest`] is that state machine. The shipping protocol drives it
//! with three calls per segment:
//!
//! 1. [`WalIngest::begin_segment`] — the leader is about to stream the
//!    segment whose first record has the given LSN, from byte offset 0.
//!    Any local segment files *after* it are leftovers of a previous
//!    incarnation (the header-only active segment a follower's own open
//!    creates, or a partially shipped segment from a dropped connection)
//!    and are deleted. The segment's own file, if present, is *preserved*:
//!    its trusted prefix — valid header plus whole CRC-checked frames
//!    chaining up to the applied LSN — is reloaded as already-received
//!    bytes, so the local image never shrinks below what recovery already
//!    replayed.
//! 2. [`WalIngest::ingest`] — a chunk of raw bytes at the given offset.
//!    Bytes overlapping the preserved prefix are verified against it and
//!    skipped (the leader re-ships below its flushed frontier
//!    byte-for-byte, so a mismatch is real divergence, not resumption);
//!    fresh bytes are written to the local file verbatim and parsed
//!    incrementally, and every *complete* frame past the applied LSN is
//!    returned for application. A partial trailing frame simply waits for
//!    more bytes — and if the follower dies first, it is exactly the torn
//!    tail local recovery already repairs.
//! 3. [`WalIngest::seal_segment`] — the leader sealed the segment; no
//!    more bytes will come. The local copy is synced and the next
//!    `begin_segment` may start the successor.
//!
//! Because the leader always re-ships the whole segment containing
//! `applied + 1` from offset 0 on (re)connect, resumption needs no
//! byte-level negotiation. Preserving the already-received prefix across
//! a restart matters for more than efficiency: a follower can be
//! *promoted* (or cleanly reopened) at any instant, including mid-resume,
//! and promotion recovers from the local files. If the restart truncated
//! the segment and rewrote it from offset 0, every record between the
//! rewrite point and the old applied LSN would be lost to a promotion
//! that lands inside the rewrite window — acknowledged statements
//! included. With the prefix preserved, the on-disk image is always at
//! least as long as the applied watermark. Anything that does not
//! checksum or does not chain is a hard [`ChronicleError::Corruption`] —
//! the caller drops the connection and reconnects from its recovered
//! durable state, the same salvage-or-refuse discipline local recovery
//! applies.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use chronicle_simkit::{Vfs, VfsFile};
use chronicle_types::{ChronicleError, Result};

use crate::record::WalRecord;
use crate::wal::{parse_frame, parse_segment_name, segment_name, sync_dir, FrameError};
use crate::wal::{HEADER_LEN, MAGIC};

fn io_err(context: &str, path: &Path, e: std::io::Error) -> ChronicleError {
    ChronicleError::Durability {
        detail: format!("{context} {}: {e}", path.display()),
    }
}

fn corrupt(detail: String) -> ChronicleError {
    ChronicleError::Corruption { detail }
}

/// The longest prefix of a previously received segment image that can be
/// trusted across a restart: a valid header for `first_lsn` followed by
/// whole CRC-checked frames chaining upward, stopping at the applied LSN.
/// Frames past `applied` are dropped even when they parse — they will be
/// re-shipped and re-applied through the normal path, which keeps the
/// preserved image exactly equal to what local recovery already replayed.
/// Returns `(prefix_len, next_lsn, header_ok)`.
fn replayable_prefix(bytes: &[u8], first_lsn: u64, applied: u64) -> (usize, u64, bool) {
    if bytes.len() < HEADER_LEN || &bytes[..8] != MAGIC {
        return (0, first_lsn, false);
    }
    let first = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if first != first_lsn {
        return (0, first_lsn, false);
    }
    let mut parsed = HEADER_LEN;
    let mut next = first_lsn;
    while parsed < bytes.len() && next <= applied {
        match parse_frame(&bytes[parsed..], next) {
            Ok((consumed, _)) => {
                parsed += consumed;
                next += 1;
            }
            Err(_) => break,
        }
    }
    (parsed, next, true)
}

/// The segment currently being received.
struct Receiving {
    first_lsn: u64,
    path: PathBuf,
    file: Box<dyn VfsFile>,
    /// Every byte received so far (the leader streams the file verbatim,
    /// header included), mirrored to `file`.
    buf: Vec<u8>,
    /// Offset up to which `buf` has been parsed into frames.
    parsed: usize,
    /// Expected LSN of the next frame.
    next_lsn: u64,
    /// Whether the 16-byte segment header has been validated yet.
    header_ok: bool,
}

impl std::fmt::Debug for Receiving {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Receiving")
            .field("first_lsn", &self.first_lsn)
            .field("received", &self.buf.len())
            .field("parsed", &self.parsed)
            .field("next_lsn", &self.next_lsn)
            .finish()
    }
}

/// Follower-side ingest state machine: persists shipped segment bytes into
/// a local WAL directory and decodes complete frames for application.
#[derive(Debug)]
pub struct WalIngest {
    vfs: Arc<dyn Vfs>,
    dir: PathBuf,
    fsync: bool,
    /// LSN of the last record handed to the caller (or already recovered
    /// locally before this ingest was created).
    applied: u64,
    /// Local segment files as `(first_lsn, path)`, ascending.
    known: Vec<(u64, PathBuf)>,
    /// The chain's tail segment as found at open time. A previous
    /// incarnation wrote it but may have died before the seal that syncs
    /// it, so its bytes can still be volatile; it must be persisted
    /// before a successor segment makes it non-final (local recovery
    /// repairs a torn segment only in final position).
    unsynced_tail: Option<(u64, PathBuf)>,
    cur: Option<Receiving>,
    /// Raw segment bytes received (header + frames, including skipped
    /// ones).
    bytes_received: u64,
}

impl WalIngest {
    /// Set up ingest into `dir` (created if missing). `applied` is the
    /// LSN through which local recovery already replayed — records at or
    /// below it are skipped when they arrive again. `fsync` syncs each
    /// sealed segment before acknowledging it.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: impl AsRef<Path>,
        fsync: bool,
        applied: u64,
    ) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        vfs.create_dir_all(&dir)
            .map_err(|e| io_err("creating WAL directory", &dir, e))?;
        let mut known: Vec<(u64, PathBuf)> = vfs
            .list(&dir)
            .map_err(|e| io_err("listing WAL directory", &dir, e))?
            .into_iter()
            .filter_map(|path| {
                let first = parse_segment_name(path.file_name()?.to_str()?)?;
                Some((first, path))
            })
            .collect();
        known.sort();
        let unsynced_tail = known.last().cloned();
        Ok(WalIngest {
            vfs,
            dir,
            fsync,
            applied,
            known,
            unsynced_tail,
            cur: None,
            bytes_received: 0,
        })
    }

    /// LSN of the last record returned for application.
    pub fn applied(&self) -> u64 {
        self.applied
    }

    /// Raw segment bytes received so far (headers included).
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// The leader is about to stream the segment whose first record is
    /// `first_lsn`, starting at byte offset 0. Stale local segments past
    /// it are deleted; an existing image of the segment itself survives —
    /// its trusted prefix counts as already received, and
    /// [`WalIngest::ingest`] verifies the re-shipped overlap against it.
    pub fn begin_segment(&mut self, first_lsn: u64) -> Result<()> {
        match self.cur.take() {
            // The leader moved on past the segment being received without
            // an explicit seal — the connection that shipped it died
            // first, and the resume point landed in a successor. That can
            // only happen once every byte of it parsed (a torn tail would
            // pull the resume point back *into* it), so it is complete:
            // seal it implicitly, or the local chain would carry an
            // unsynced non-final segment a power cut can tear.
            Some(mut prev) if prev.first_lsn < first_lsn => {
                if !prev.header_ok || prev.parsed != prev.buf.len() {
                    return Err(corrupt(format!(
                        "leader skipped past segment at lsn {} with {} unparsed bytes",
                        prev.first_lsn,
                        prev.buf.len() - prev.parsed.min(prev.buf.len())
                    )));
                }
                if self.fsync {
                    prev.file
                        .sync_data()
                        .map_err(|e| io_err("syncing WAL segment", &prev.path, e))?;
                    sync_dir(self.vfs.as_ref(), &self.dir)?;
                }
                self.known.push((prev.first_lsn, prev.path));
            }
            // A restart of the same segment reloads its trusted prefix
            // below; a *later* in-flight segment is stale (it is not in
            // `known`, so the sweep below would miss it) and is deleted
            // here.
            Some(prev) if prev.first_lsn > first_lsn => {
                drop(prev.file);
                self.vfs
                    .remove_file(&prev.path)
                    .map_err(|e| io_err("removing stale WAL segment", &prev.path, e))?;
            }
            _ => {}
        }
        if let Some((first, path)) = self.unsynced_tail.take() {
            if first < first_lsn && self.fsync {
                // The inherited tail is about to gain a successor. Its
                // bytes may never have been synced (the incarnation that
                // wrote them can have died before the seal), so persist
                // the current image first — `Vfs::truncate` is the
                // set_len-plus-fdatasync contract recovery repairs rely
                // on, and a same-length call is exactly "sync this file".
                let len = self
                    .vfs
                    .read(&path)
                    .map_err(|e| io_err("reading WAL segment", &path, e))?
                    .len() as u64;
                self.vfs
                    .truncate(&path, len)
                    .map_err(|e| io_err("persisting WAL segment", &path, e))?;
                sync_dir(self.vfs.as_ref(), &self.dir)?;
            }
            // At or past `first_lsn` the tail is rewritten or swept below;
            // the rewrite's own seal covers its durability.
        }
        let mut keep = Vec::with_capacity(self.known.len());
        let mut removed = false;
        for (first, path) in std::mem::take(&mut self.known) {
            if first > first_lsn {
                self.vfs
                    .remove_file(&path)
                    .map_err(|e| io_err("removing stale WAL segment", &path, e))?;
                removed = true;
            } else if first < first_lsn {
                keep.push((first, path));
            }
            // `first == first_lsn` is the segment being restarted: the
            // file stays (it seeds the preserved prefix below) and the
            // entry leaves `known` because the segment is live again.
        }
        self.known = keep;
        if removed && self.fsync {
            // The unlinks must be durable before the segment is rewritten:
            // a power cut mid-rewrite otherwise resurrects a *later*
            // segment next to the torn one, and local recovery refuses a
            // torn segment that is not the final one.
            sync_dir(self.vfs.as_ref(), &self.dir)?;
        }
        let path = self.dir.join(segment_name(first_lsn));
        // Preserve what a clean reopen would recover: the trusted prefix
        // of any existing image. Restoring it inside this call (rather
        // than truncating and letting the leader rewrite it over many
        // deliveries) means there is no instant at which a promotion sees
        // the segment shorter than the applied watermark.
        let preload = match self.vfs.read(&path) {
            Ok(bytes) => {
                let (len, next_lsn, header_ok) = replayable_prefix(&bytes, first_lsn, self.applied);
                let mut bytes = bytes;
                bytes.truncate(len);
                (bytes, next_lsn, header_ok)
            }
            Err(_) => (Vec::new(), first_lsn, false),
        };
        let (buf, next_lsn, header_ok) = preload;
        let mut file = self
            .vfs
            .create(&path)
            .map_err(|e| io_err("creating WAL segment", &path, e))?;
        if !buf.is_empty() {
            file.write_all(&buf)
                .map_err(|e| io_err("writing WAL segment", &path, e))?;
        }
        let parsed = buf.len();
        self.cur = Some(Receiving {
            first_lsn,
            path,
            file,
            buf,
            parsed,
            next_lsn,
            header_ok,
        });
        Ok(())
    }

    /// Raw segment bytes at `offset` (at or before where the stream left
    /// off — a restart re-ships from 0 and the overlap with the preserved
    /// prefix is verified, not rewritten). Fresh bytes are persisted, and
    /// every newly completed record past the applied LSN is returned in
    /// order.
    pub fn ingest(&mut self, offset: u64, bytes: &[u8]) -> Result<Vec<(u64, WalRecord)>> {
        let cur = self.cur.as_mut().ok_or_else(|| {
            corrupt("segment bytes arrived before the segment was announced".into())
        })?;
        let have = cur.buf.len() as u64;
        if offset > have {
            return Err(corrupt(format!(
                "segment bytes arrived at offset {offset} but only {have} were received"
            )));
        }
        self.bytes_received += bytes.len() as u64;
        // The leader only re-ships bytes below its flushed frontier, and
        // those never change across leader restarts — so the overlap with
        // what this follower already holds must match byte-for-byte. A
        // mismatch means the follower's history diverged from this
        // leader's (e.g. it outlived a failover the leader did not), which
        // no amount of resumption can reconcile.
        let skip = ((have - offset) as usize).min(bytes.len());
        if bytes[..skip] != cur.buf[offset as usize..offset as usize + skip] {
            return Err(corrupt(format!(
                "re-shipped bytes at offset {offset} differ from the local image of {}: \
                 the follower's history has diverged from this leader",
                cur.path.display()
            )));
        }
        let fresh = &bytes[skip..];
        cur.buf.extend_from_slice(fresh);
        cur.file
            .write_all(fresh)
            .map_err(|e| io_err("writing WAL segment", &cur.path, e))?;

        if !cur.header_ok {
            if cur.buf.len() < HEADER_LEN {
                return Ok(Vec::new());
            }
            if &cur.buf[..8] != MAGIC {
                return Err(corrupt(format!(
                    "shipped segment {} has a corrupt header",
                    cur.path.display()
                )));
            }
            let first = u64::from_le_bytes(cur.buf[8..16].try_into().expect("8 bytes"));
            if first != cur.first_lsn {
                return Err(corrupt(format!(
                    "shipped segment announced for lsn {} but its header says {first}",
                    cur.first_lsn
                )));
            }
            cur.header_ok = true;
            cur.parsed = HEADER_LEN;
        }

        let mut out = Vec::new();
        while cur.parsed < cur.buf.len() {
            match parse_frame(&cur.buf[cur.parsed..], cur.next_lsn) {
                Ok((consumed, record)) => {
                    let lsn = cur.next_lsn;
                    if lsn > self.applied {
                        self.applied = lsn;
                        out.push((lsn, record));
                    }
                    cur.next_lsn += 1;
                    cur.parsed += consumed;
                }
                // An incomplete trailing frame just needs more bytes. A
                // CRC mismatch also parses as Torn — it becomes a hard
                // error at seal time (no more bytes are coming) or keeps
                // the stream stalled until the connection drops; either
                // way it never decodes.
                Err(FrameError::Torn(_)) => break,
                Err(FrameError::Corrupt(detail)) => {
                    return Err(corrupt(format!(
                        "shipped segment {}: {detail}",
                        cur.path.display()
                    )));
                }
            }
        }
        Ok(out)
    }

    /// The leader sealed the segment: every byte of it has been shipped.
    /// Verifies nothing is left half-parsed, makes the local copy durable
    /// (when `fsync`), and readies the ingest for the next segment.
    pub fn seal_segment(&mut self, first_lsn: u64) -> Result<()> {
        let cur = self.cur.as_mut().ok_or_else(|| {
            corrupt("segment seal arrived before the segment was announced".into())
        })?;
        if cur.first_lsn != first_lsn {
            return Err(corrupt(format!(
                "seal names segment at lsn {first_lsn} but lsn {} is being received",
                cur.first_lsn
            )));
        }
        if !cur.header_ok || cur.parsed != cur.buf.len() {
            return Err(corrupt(format!(
                "segment at lsn {first_lsn} sealed with {} unparsed trailing bytes",
                cur.buf.len() - cur.parsed.min(cur.buf.len())
            )));
        }
        if self.fsync {
            cur.file
                .sync_data()
                .map_err(|e| io_err("syncing WAL segment", &cur.path, e))?;
            sync_dir(self.vfs.as_ref(), &self.dir)?;
        }
        let cur = self.cur.take().expect("checked above");
        self.known.push((cur.first_lsn, cur.path));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::Wal;
    use crate::DurabilityOptions;
    use chronicle_simkit::SimFs;
    use chronicle_types::{tuple, Chronon, SeqNo};

    fn rec(i: u64) -> WalRecord {
        WalRecord::Append {
            chronicle: "c".into(),
            seq: SeqNo(i),
            at: Chronon(i as i64),
            tuples: vec![tuple![SeqNo(i), i as i64]],
        }
    }

    fn leader_opts() -> DurabilityOptions {
        DurabilityOptions {
            segment_bytes: 128,
            fsync: true,
            ..DurabilityOptions::default()
        }
    }

    /// Default-size segments: everything in these tests fits in one.
    fn one_seg_opts() -> DurabilityOptions {
        DurabilityOptions {
            fsync: true,
            ..DurabilityOptions::default()
        }
    }

    /// Ship every live leader segment into `ingest` in `chunk`-byte
    /// pieces, returning the records the ingest surfaced.
    fn ship_all(leader: &Wal, ingest: &mut WalIngest, chunk: usize) -> Vec<(u64, WalRecord)> {
        let mut out = Vec::new();
        for seg in leader.segments() {
            ingest.begin_segment(seg.first_lsn).unwrap();
            let mut offset = 0;
            loop {
                let read = leader.read_segment(seg.first_lsn, offset, chunk).unwrap();
                out.extend(ingest.ingest(offset, &read.bytes).unwrap());
                offset += read.bytes.len() as u64;
                if offset >= read.total_len {
                    break;
                }
            }
            if seg.sealed {
                ingest.seal_segment(seg.first_lsn).unwrap();
            }
        }
        out
    }

    #[test]
    fn shipped_segments_recover_locally() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(11));
        let (mut leader, _) =
            Wal::open_with_vfs(Arc::clone(&fs), "/leader/wal", leader_opts(), 0).unwrap();
        for i in 1..=40 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        assert!(leader.segments().len() > 3, "need rotation in this test");

        let mut ingest = WalIngest::open(Arc::clone(&fs), "/follower/wal", true, 0).unwrap();
        for chunk in [1usize, 7, 64, 4096] {
            let got = ship_all(
                &leader,
                &mut WalIngest::open(Arc::clone(&fs), format!("/follower-{chunk}/wal"), true, 0)
                    .unwrap(),
                chunk,
            );
            assert_eq!(got.len(), 40, "chunk {chunk}");
        }
        let got = ship_all(&leader, &mut ingest, 13);
        assert_eq!(
            got.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            (1..=40).collect::<Vec<_>>()
        );
        for (lsn, r) in &got {
            assert_eq!(*r, rec(*lsn));
        }
        // The follower's local WAL recovers through the normal path with
        // the identical tail.
        let (_, tail) =
            Wal::open_with_vfs(Arc::clone(&fs), "/follower/wal", leader_opts(), 0).unwrap();
        assert_eq!(tail, got);
    }

    #[test]
    fn reshipping_skips_applied_records() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(12));
        let (mut leader, _) =
            Wal::open_with_vfs(Arc::clone(&fs), "/leader/wal", leader_opts(), 0).unwrap();
        for i in 1..=30 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 0).unwrap();
        ship_all(&leader, &mut ingest, 64);
        assert_eq!(ingest.applied(), 30);

        // A reconnect re-ships whole segments from offset 0; nothing may
        // surface twice.
        let applied = ingest.applied();
        let mut resumed = WalIngest::open(Arc::clone(&fs), "/f/wal", true, applied).unwrap();
        for i in 31..=35 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let seg = leader.segment_containing(applied + 1).unwrap();
        let mut got = Vec::new();
        for s in leader.segments() {
            if s.first_lsn < seg.first_lsn {
                continue;
            }
            resumed.begin_segment(s.first_lsn).unwrap();
            let read = leader.read_segment(s.first_lsn, 0, usize::MAX).unwrap();
            got.extend(resumed.ingest(0, &read.bytes).unwrap());
            if s.sealed {
                resumed.seal_segment(s.first_lsn).unwrap();
            }
        }
        assert_eq!(
            got.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            (31..=35).collect::<Vec<_>>()
        );
        let (_, tail) = Wal::open_with_vfs(Arc::clone(&fs), "/f/wal", leader_opts(), 0).unwrap();
        assert_eq!(tail.len(), 35);
    }

    #[test]
    fn stale_later_segments_are_removed() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(13));
        // A follower's own `Wal::open` leaves a header-only active segment
        // behind; a later shipped segment covering earlier LSNs must
        // delete it or the next recovery sees a broken chain.
        {
            let (_wal, _) =
                Wal::open_with_vfs(Arc::clone(&fs), "/f/wal", leader_opts(), 0).unwrap();
        }
        let (mut leader, _) =
            Wal::open_with_vfs(Arc::clone(&fs), "/leader/wal", leader_opts(), 0).unwrap();
        for i in 1..=10 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 0).unwrap();
        ship_all(&leader, &mut ingest, 64);
        let (_, tail) = Wal::open_with_vfs(Arc::clone(&fs), "/f/wal", leader_opts(), 0).unwrap();
        assert_eq!(tail.len(), 10);
    }

    #[test]
    fn torn_partial_frame_recovers_as_prefix() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(14));
        let (mut leader, _) =
            Wal::open_with_vfs(Arc::clone(&fs), "/leader/wal", one_seg_opts(), 0).unwrap();
        for i in 1..=3 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let seg = leader.segments()[0].clone();
        let read = leader.read_segment(seg.first_lsn, 0, usize::MAX).unwrap();
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 0).unwrap();
        ingest.begin_segment(seg.first_lsn).unwrap();
        // Ship all but the final 3 bytes: the last frame stays torn.
        let cut = read.bytes.len() - 3;
        let got = ingest.ingest(0, &read.bytes[..cut]).unwrap();
        assert_eq!(got.len(), 2);
        drop(ingest); // connection dies here
        let (_, tail) = Wal::open_with_vfs(Arc::clone(&fs), "/f/wal", leader_opts(), 0).unwrap();
        assert_eq!(tail.iter().map(|(l, _)| *l).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn corrupt_bytes_are_refused() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(15));
        let (mut leader, _) =
            Wal::open_with_vfs(Arc::clone(&fs), "/leader/wal", one_seg_opts(), 0).unwrap();
        for i in 1..=3 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let seg = leader.segments()[0].clone();
        let clean = leader
            .read_segment(seg.first_lsn, 0, usize::MAX)
            .unwrap()
            .bytes;

        // Bad magic.
        let mut bad = clean.clone();
        bad[0] ^= 0xFF;
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f1/wal", true, 0).unwrap();
        ingest.begin_segment(seg.first_lsn).unwrap();
        assert!(ingest.ingest(0, &bad).is_err());

        // A flipped payload bit: the frame never checksums, so sealing
        // with it unparsed is refused.
        let mut bad = clean.clone();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f2/wal", true, 0).unwrap();
        ingest.begin_segment(seg.first_lsn).unwrap();
        let got = ingest.ingest(0, &bad).unwrap();
        assert_eq!(got.len(), 2, "only the intact prefix decodes");
        assert!(ingest.seal_segment(seg.first_lsn).is_err());

        // A gap: bytes starting past what was received.
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f3/wal", true, 0).unwrap();
        ingest.begin_segment(seg.first_lsn).unwrap();
        assert!(ingest.ingest(5, &clean).is_err());
    }

    /// A reconnect restarts the active segment from offset 0. The local
    /// image must survive the restart: a promotion (clean reopen) can land
    /// at any instant of the resume, and everything recovery had already
    /// replayed — acknowledged statements included — must still be on
    /// disk.
    #[test]
    fn restart_preserves_the_applied_prefix_on_disk() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(16));
        let (mut leader, _) =
            Wal::open_with_vfs(Arc::clone(&fs), "/leader/wal", one_seg_opts(), 0).unwrap();
        for i in 1..=5 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 0).unwrap();
        ship_all(&leader, &mut ingest, 64);
        assert_eq!(ingest.applied(), 5);
        drop(ingest);

        // Reconnect: recovery replayed through 5, the leader re-announces
        // the active segment, and only a sliver of the re-shipped stream
        // arrives before the follower is promoted.
        let seg = leader.segments()[0].clone();
        let stream = leader.read_segment(seg.first_lsn, 0, usize::MAX).unwrap();
        let mut resumed = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 5).unwrap();
        resumed.begin_segment(seg.first_lsn).unwrap();
        let got = resumed.ingest(0, &stream.bytes[..10]).unwrap();
        assert_eq!(got, vec![], "overlap bytes surface nothing new");
        drop(resumed); // promotion reopens from the local files
        let (_, tail) = Wal::open_with_vfs(Arc::clone(&fs), "/f/wal", one_seg_opts(), 0).unwrap();
        assert_eq!(
            tail.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![1, 2, 3, 4, 5],
            "a restart must never shrink the image below the applied LSN"
        );

        // The same resume carried to completion extends the image past
        // the preserved prefix as new records arrive.
        let mut resumed = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 5).unwrap();
        resumed.begin_segment(seg.first_lsn).unwrap();
        assert!(resumed.ingest(0, &stream.bytes).unwrap().is_empty());
        for i in 6..=8 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let more = leader.read_segment(seg.first_lsn, 0, usize::MAX).unwrap();
        let got = resumed.ingest(stream.bytes.len() as u64, &more.bytes[stream.bytes.len()..]);
        assert_eq!(
            got.unwrap().iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![6, 7, 8]
        );
    }

    /// Re-shipped bytes below the leader's flushed frontier are immutable,
    /// so an overlap that disagrees with the preserved local image is
    /// divergence — e.g. a follower of a deposed leader attaching to a new
    /// lineage — and must be refused loudly, not spliced.
    #[test]
    fn diverged_overlap_is_refused() {
        let fs: Arc<dyn Vfs> = Arc::new(SimFs::new(17));
        let (mut leader, _) =
            Wal::open_with_vfs(Arc::clone(&fs), "/leader/wal", one_seg_opts(), 0).unwrap();
        for i in 1..=5 {
            leader.append(&rec(i)).unwrap();
            leader.flush().unwrap();
        }
        let mut ingest = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 0).unwrap();
        ship_all(&leader, &mut ingest, 64);
        drop(ingest);

        let seg = leader.segments()[0].clone();
        let mut stream = leader
            .read_segment(seg.first_lsn, 0, usize::MAX)
            .unwrap()
            .bytes;
        stream[HEADER_LEN + 3] ^= 0x40; // inside the preserved prefix
        let mut resumed = WalIngest::open(Arc::clone(&fs), "/f/wal", true, 5).unwrap();
        resumed.begin_segment(seg.first_lsn).unwrap();
        let err = resumed.ingest(0, &stream).unwrap_err();
        assert!(
            err.to_string().contains("diverged"),
            "expected divergence refusal, got: {err}"
        );
    }
}
