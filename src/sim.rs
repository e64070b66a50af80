//! Deterministic simulation driver: seeded fault schedules against the
//! durable engine over [`SimFs`], checked after every recovery against a
//! naive in-memory oracle.
//!
//! One `u64` seed determines *everything* a run does — the operation
//! schedule ([`chronicle_simkit::generate`]), the filesystem's fault
//! decisions (which bytes a torn write keeps, which unsynced renames
//! survive a power cut), and where each armed crash strikes. A failing
//! run therefore reproduces from its seed alone: `run_seed(seed, &cfg)`
//! replays it byte-for-byte.
//!
//! # Protocol
//!
//! The driver executes the schedule against a durable
//! [`ChronicleDb`]/[`ShardedDb`] opened over a [`SimFs`] with `fsync`
//! enabled, so every acknowledged (`Ok`) statement is durable by
//! contract. It tracks the acknowledged SQL prefix; after every recovery
//! — crash-induced, clean reopen, or the hard power cut that ends every
//! schedule — it rebuilds a fresh in-memory database replaying that
//! prefix and compares complete logical state (every view snapshot
//! byte-for-byte, periodic families included, relation contents,
//! chronicle windows and watermarks).
//!
//! A crash can strike mid-statement, leaving exactly one statement
//! *in flight*: its WAL record may or may not have reached the durable
//! medium before the lights went out. Recovery must land on one of the
//! two legal histories — `acked` or `acked + [in_flight]` — and the
//! driver adopts whichever matched as the canonical history going
//! forward. Anything else is a correctness bug, reported as a
//! [`SimFailure`] carrying the reproducing seed.
//!
//! # Group moves
//!
//! Schedules also carry [`SimOp::MoveGroup`] ops — heavy-light
//! placement's move primitive, driven adversarially. The driver renders
//! each as the pseudo-statement `MOVE GROUP g TO SHARD k` and pushes it
//! through the same acknowledged-history machinery as SQL: sharded runs
//! execute it via [`ShardedDb::move_group`] (the target reduced modulo
//! the shard count) and acknowledge on `Ok`, single-topology runs drop
//! it unacknowledged (nowhere to move a group), and the oracle replays the
//! pseudo-statement identically — placement is part of the per-shard
//! digest, so a placement divergence fails the run like any state
//! divergence. A crash mid-move is verified like any in-flight
//! statement: recovery must land on `acked` (the import never became
//! durable) or `acked + [move]` (it did, and the epoch reconcile in
//! `ShardedDb::open` rolled the half-committed move forward). After
//! every sharded recovery the driver additionally asserts that no
//! non-default group is owned by two shards. Bit-rot runs skip moves: a
//! lossy salvage can drop the import or the evict record independently,
//! and the reconciled aftermath is not enumerable as per-shard prefixes
//! of the acknowledged history.
//!
//! # Known torn state: cross-shard relation broadcasts
//!
//! [`ShardedDb`] replicates relations to every shard by broadcasting DML
//! shard-by-shard, each with its own WAL commit. A power cut mid-broadcast
//! legally leaves a *prefix* of shards with the statement applied and the
//! rest without — the replicas have genuinely diverged, which the sharded
//! engine does not repair (there is no cross-shard atomic commit). The
//! driver verifies the per-shard prefix property (shards `0..j` match the
//! applied history, shards `j..` the unapplied one) and then halts the
//! schedule: subsequent broadcasts against diverged replicas are outside
//! the oracle's model. The halt is counted in
//! [`SimReport::halted_on_divergence`], not a failure.
//!
//! # Bit-rot mode
//!
//! [`run_seed_bit_rot`] and [`run_seed_bit_rot_sharded`] run the same
//! schedule with [`RecoveryPolicy::Salvage`] and, after every power cut,
//! flip a few seeded bits in the durable medium
//! ([`SimFs::inject_bit_rot`]) before recovering. Two properties are
//! checked at every rotted recovery:
//!
//! * **Strict fails loudly.** On a fork of the rotted disk,
//!   [`RecoveryPolicy::Strict`] must either refuse to open or land
//!   exactly on a prefix of the acknowledged history (rot in the final
//!   segment's tail is indistinguishable from a clean torn write, which
//!   Strict legally repairs). Opening onto any other state is a failure.
//! * **Salvage recovers the maximal legal prefix and confesses.** The
//!   salvage open must land on `replay(acked[..k])` for some `k` — and in
//!   single topology the check is *exact*: the driver records the WAL
//!   high-water lsn after every acknowledged statement (statements may
//!   log zero records — a no-op `DELETE` is acknowledged without touching
//!   the log — so statement index and lsn are not interchangeable), and
//!   the [`chronicle_db::SalvageReport`]'s `replayed_through`/`lost`
//!   fields must name `k` precisely under that map. Dropped acknowledged statements
//!   without a matching loss confession, or a quarantined file the
//!   report names that does not exist, are failures. After a lossy
//!   salvage the driver rebases its acknowledged history to the
//!   surviving prefix and plays on.
//!
//! In sharded bit-rot runs each shard owns an independent WAL, so the
//! driver checks the per-shard prefix property instead of exact LSN
//! accounting, requires the aggregated report to admit loss whenever a
//! shard dropped acknowledged work, and halts the schedule when shards
//! land on different prefixes (diverged replicas, as above).
//!
//! # Leader/follower runs
//!
//! [`run_replication_seed`] and [`run_failover_seed`] drive one node set
//! through one loop: a durable leader over one [`SimFs`], a
//! [`chronicle_db::FollowerDb`] over a second, and the real wire stack in
//! between — [`chronicle_net::Shipper`] events encoded to
//! [`chronicle_net::Message`] frames, pushed through a
//! [`chronicle_simkit::SimPipe`] that re-chunks deliveries at seeded byte
//! boundaries, decoded by the real [`FrameDecoder`], and applied through
//! the follower's ingest path. Every round is the same: a workload step,
//! a roll of `0..100` that picks one fault from the mode's table, the
//! fault, and the workload's ack. A mode is only data — a fault table
//! and a workload:
//!
//! | roll | replication fault |
//! |------|-------------------|
//! | 0–54 | ship: 1–3 pump cycles, partial delivery |
//! | 55–69 | idle: the leader runs ahead |
//! | 70–79 | cut: in-flight bytes lost, the follower reopened from disk |
//! | 80–89 | follower kill: power cut, recovery, resume from the applied watermark |
//! | 90–99 | leader kill: power cut mid-segment-stream, recovery |
//!
//! | roll | failover fault |
//! |------|----------------|
//! | 0–44 | ship |
//! | 45–54 | partition: bytes queue, nothing arrives |
//! | 55–64 | heal, then deliver |
//! | 65–72 | duplicate the freshest heartbeat frame |
//! | 73–79 | lost ack: a session retries its newest stamp |
//! | 80–87 | cut |
//! | 88–93 | follower kill, then catch-up |
//! | 94–99 | leader death: fenced promotion of the follower, client redirect |
//!
//! Replication runs the **schedule** workload: the seeded schedule's SQL
//! and group moves, one op per round, acknowledged on leader durability
//! (fsync on). Failover runs the **stamped** workload: three sessions
//! with at most one stamped statement in flight each, acknowledged
//! semi-synchronously — only once the follower's replayed session table
//! covers the stamp — so a follower recovered from a power cut is caught
//! straight back up while the leader lives.
//!
//! Checked in both modes:
//!
//! * after every follower recovery, each follower shard's state matches
//!   *some prefix* of the history (shards may legally sit at different
//!   prefixes mid-stream);
//! * after every leader recovery, the leader lands exactly on the
//!   history and the follower is never *ahead* of the recovered leader's
//!   durable frontier — the ship-only-flushed invariant, observed
//!   end-to-end;
//! * after every promotion, the new leader covers every acknowledged
//!   stamp and equals the surviving lineage; retried stamps (lost-ack
//!   probes, redirects of survivors) are answered from the dedupe cache
//!   with state unchanged; and a stream carrying the deposed term is
//!   refused with a typed [`ChronicleError::Fenced`](chronicle_types::ChronicleError::Fenced);
//! * at the end, the leader equals a never-crashed oracle replaying the
//!   history once per statement, and one uninterrupted catch-up
//!   converges the follower to it byte for byte with zero replication
//!   lag.
//!
//! Stamped runs promote and retry an acknowledged stamp at least once
//! per seed (forced if the dice never roll them), so the `skip_fencing`
//! and `skip_session_dedupe` mutation checks trip on *any* seed.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

use chronicle_db::{ChronicleDb, DurabilityOptions, FollowerDb, RecoveryPolicy, ShardedDb};
use chronicle_net::frame::{encode_frame, FrameDecoder};
use chronicle_net::{Message, ShipEvent, Shipper, WalSource};
use chronicle_simkit::{generate, ScheduleConfig, SimFs, SimOp, SimPipe, Vfs, SHORT_READ_MSG};
use chronicle_sql::{parse, Statement};

/// Salt xored into the schedule seed to derive the filesystem RNG seed,
/// so the two deterministic streams never accidentally correlate.
const FS_SEED_SALT: u64 = 0x0f5f_5eed_0d15_c0de;

/// `SIM_TRACE=1` streams every executed op (with the filesystem mutation
/// counter), crash points, reopens, and — on failure — the surviving
/// files with their WAL frames decoded plus the full recovered/oracle
/// digests, all to stderr. Purely diagnostic: reads no RNG and never
/// changes what a run does, so a traced replay is byte-identical to the
/// original.
fn trace_on() -> bool {
    static ON: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ON.get_or_init(|| std::env::var("SIM_TRACE").is_ok())
}

macro_rules! trace {
    ($($t:tt)*) => {
        if trace_on() {
            eprintln!($($t)*);
        }
    };
}

/// Attempts before a reopen loop gives up (each retry first resolves any
/// pending crash, so this bound is never reached on correct code).
const MAX_REOPEN_ATTEMPTS: u32 = 8;

/// A simulation found a correctness violation (or could not recover).
/// `Display` leads with the seed: pasting it into [`run_seed`] replays
/// the failing run deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimFailure {
    /// The schedule seed that reproduces this failure.
    pub seed: u64,
    /// What went wrong, with the first diverging state line if any.
    pub detail: String,
}

impl std::fmt::Display for SimFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation failure [reproduce with seed {}]: {}",
            self.seed, self.detail
        )
    }
}

impl std::error::Error for SimFailure {}

/// What one completed run did (diagnostics for gates and tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimReport {
    /// The seed the run replayed.
    pub seed: u64,
    /// SQL statements acknowledged (including adopted in-flight ones).
    pub sql_acked: usize,
    /// Power losses suffered (armed crashes plus the final hard cut).
    pub crashes: usize,
    /// Recoveries performed and verified against the oracle.
    pub recoveries: usize,
    /// Explicit checkpoints completed.
    pub checkpoints: usize,
    /// The run stopped early because shards legally landed on different
    /// history prefixes — a mid-broadcast power cut, or a bit-rot salvage
    /// that cost one shard more than another (sharded mode only; the
    /// diverged state itself was verified shard-by-shard).
    pub halted_on_divergence: bool,
    /// Bits flipped into the durable medium (bit-rot mode only).
    pub bit_rot_flips: usize,
    /// Salvage opens whose report was non-trivial (something quarantined,
    /// skipped, or lost).
    pub salvaged_opens: usize,
    /// Acknowledged statements dropped by lossy salvages — every one of
    /// them enumerated by a matching [`chronicle_db::SalvageReport`].
    pub acked_lost: usize,
    /// Acknowledged `MOVE GROUP` pseudo-statements (sharded runs only;
    /// single topology has nowhere to move a group).
    pub moves: usize,
}

/// Render a [`SimOp::MoveGroup`] as the driver's pseudo-statement. The
/// raw target rides in the text; executors reduce it modulo their shard
/// count, so the acknowledged history replays against any oracle with
/// the same topology.
fn render_move(group: &str, to: u64) -> String {
    format!("MOVE GROUP {group} TO SHARD {to}")
}

/// Parse the pseudo-statement back (`None` for real SQL).
fn parse_move(sql: &str) -> Option<(&str, u64)> {
    let rest = sql.strip_prefix("MOVE GROUP ")?;
    let (group, tail) = rest.split_once(" TO SHARD ")?;
    tail.parse().ok().map(|to| (group, to))
}

/// Run one seeded schedule against a single durable [`ChronicleDb`].
pub fn run_seed(seed: u64, cfg: &ScheduleConfig) -> Result<SimReport, SimFailure> {
    run(seed, cfg, None, false)
}

/// Run one seeded schedule against a [`ShardedDb`] with `shards` shards.
/// Fault plans are cleared before every reopen (shard recovery is
/// parallel, so an armed countdown would trip in nondeterministic thread
/// order); faults strike only while the database is serially executing.
pub fn run_seed_sharded(
    seed: u64,
    shards: usize,
    cfg: &ScheduleConfig,
) -> Result<SimReport, SimFailure> {
    run(seed, cfg, Some(shards), false)
}

/// [`run_seed`] with seeded bit rot after every power cut and
/// [`RecoveryPolicy::Salvage`] recovery (see the module docs).
pub fn run_seed_bit_rot(seed: u64, cfg: &ScheduleConfig) -> Result<SimReport, SimFailure> {
    run(seed, cfg, None, true)
}

/// [`run_seed_sharded`] with seeded bit rot after every power cut and
/// [`RecoveryPolicy::Salvage`] recovery (see the module docs).
pub fn run_seed_bit_rot_sharded(
    seed: u64,
    shards: usize,
    cfg: &ScheduleConfig,
) -> Result<SimReport, SimFailure> {
    run(seed, cfg, Some(shards), true)
}

// ---- driver ---------------------------------------------------------------

/// Execute one schedule statement. The system under test is always a
/// [`ShardedDb`]: single topology is the one-shard case wrapped around a
/// [`ChronicleDb`] (`shards: None` — see [`open`]).
fn execute(db: &mut ShardedDb, sql: &str) -> chronicle_types::Result<()> {
    if let Some((group, to)) = parse_move(sql) {
        return db.move_group(group, to as usize % db.shard_count());
    }
    db.execute(sql).map(|_| ())
}

/// Open the database under test: at the root itself for single topology,
/// under the `SHARDS` manifest layout otherwise.
fn open(
    vfs: Arc<dyn Vfs>,
    root: &std::path::Path,
    opts: DurabilityOptions,
    shards: Option<usize>,
) -> chronicle_types::Result<ShardedDb> {
    match shards {
        None => ChronicleDb::open_with_vfs(vfs, root, opts).map(ShardedDb::from),
        Some(n) => ShardedDb::open_with_vfs(vfs, root, n, opts),
    }
}

fn run(
    seed: u64,
    cfg: &ScheduleConfig,
    shards: Option<usize>,
    bit_rot: bool,
) -> Result<SimReport, SimFailure> {
    let schedule = generate(seed, cfg);
    let fs = SimFs::new(seed ^ FS_SEED_SALT);
    let vfs: Arc<dyn Vfs> = Arc::new(fs.clone());
    let root = PathBuf::from("/sim/db");
    let opts = DurabilityOptions {
        // Small segments force frequent rotation, so schedules exercise
        // the sealed-segment chain, truncation, and gap checks.
        segment_bytes: 1024,
        // Acknowledged ⇒ durable is the invariant the oracle relies on.
        fsync: true,
        auto_checkpoint_records: None,
        keep_checkpoints: 2,
        // Bit rot produces exactly the damage Strict refuses by design;
        // salvage recovery is the subject under test in rot mode.
        recovery: if bit_rot {
            RecoveryPolicy::Salvage
        } else {
            RecoveryPolicy::Strict
        },
    };
    let mut report = SimReport {
        seed,
        ..SimReport::default()
    };
    let mut acked: Vec<String> = Vec::new();
    // Single-topology bit-rot accounting: `lsn_map[i]` is the absolute
    // WAL high-water lsn right after `acked[i]` was acknowledged. Not
    // every statement logs a record (a no-op DELETE is acked with none),
    // so this map — not the statement index — is what `replayed_through`
    // is measured against. `wal_base` rebases the per-open record count
    // to absolute lsns after every recovery.
    let mut lsn_map: Vec<u64> = Vec::new();
    let mut wal_base: u64 = 0;
    let mut db = reopen(&fs, &vfs, &root, opts, shards, seed, &mut report)?;
    wal_base = db.stats().salvage.map_or(wal_base, |r| r.replayed_through);

    for op in &schedule.ops {
        // Group moves run through the same acknowledged-history machinery
        // as SQL: normalize to the pseudo-statement and fall through.
        let rendered;
        let op = match op {
            SimOp::MoveGroup { group, to } => {
                // Rot runs skip moves: a lossy salvage can drop the move's
                // import or evict record on one side only, and the
                // reconciled aftermath (an open-time evict applied atop a
                // rotted prefix) is not enumerable as per-shard prefixes
                // of the acknowledged history. Placement-under-crash is
                // fully verified by the non-rot sweeps above. Single
                // topology has nowhere to move a group: the op is dropped
                // unacknowledged.
                if bit_rot || shards.is_none() {
                    continue;
                }
                rendered = SimOp::Sql(render_move(group, *to));
                &rendered
            }
            other => other,
        };
        match op {
            SimOp::MoveGroup { .. } => unreachable!("normalized to pseudo-SQL above"),
            SimOp::Sql(sql) => {
                trace!(
                    "TRACE sql[{}] muts={} {sql}",
                    acked.len(),
                    fs.mutation_count()
                );
                match execute(&mut db, sql) {
                    Ok(()) => {
                        acked.push(sql.clone());
                        if bit_rot && shards.is_none() {
                            lsn_map.push(wal_base + db.stats().wal_records);
                        }
                    }
                    Err(_) if fs.crashed() => {
                        trace!("TRACE crash tripped during sql: {sql}");
                        report.crashes += 1;
                        fs.crash_and_restore();
                        if bit_rot {
                            rot_and_probe(
                                &fs,
                                &root,
                                opts,
                                shards,
                                &acked,
                                Some(sql),
                                seed,
                                &mut report,
                            )?;
                        }
                        db = reopen(&fs, &vfs, &root, opts, shards, seed, &mut report)?;
                        wal_base = db.stats().salvage.map_or(wal_base, |r| r.replayed_through);
                        match check(
                            &db,
                            &fs,
                            &mut acked,
                            &mut lsn_map,
                            Some(sql),
                            shards,
                            seed,
                            bit_rot,
                            &mut report,
                        )? {
                            Verdict::Continue => {}
                            Verdict::Halt => {
                                report.halted_on_divergence = true;
                                finalize(&mut report, &acked);
                                return Ok(report);
                            }
                        }
                    }
                    // A benign semantic rejection: the statement depended
                    // on an object whose creating statement was lost in an
                    // earlier crash (e.g. DROP VIEW of a never-durable
                    // view). The oracle agrees — the statement is simply
                    // not part of the acknowledged history.
                    Err(e) => {
                        trace!("TRACE sql rejected: {e}");
                    }
                }
            }
            SimOp::Checkpoint => {
                trace!("TRACE checkpoint muts={}", fs.mutation_count());
                match db.checkpoint() {
                    Ok(_) => report.checkpoints += 1,
                    Err(_) if fs.crashed() => {
                        // Checkpoints change no logical state: recovery
                        // must reproduce exactly the acknowledged history,
                        // however torn the checkpoint/prune/truncate
                        // sequence was.
                        report.crashes += 1;
                        fs.crash_and_restore();
                        if bit_rot {
                            rot_and_probe(
                                &fs,
                                &root,
                                opts,
                                shards,
                                &acked,
                                None,
                                seed,
                                &mut report,
                            )?;
                        }
                        db = reopen(&fs, &vfs, &root, opts, shards, seed, &mut report)?;
                        wal_base = db.stats().salvage.map_or(wal_base, |r| r.replayed_through);
                        match check(
                            &db,
                            &fs,
                            &mut acked,
                            &mut lsn_map,
                            None,
                            shards,
                            seed,
                            bit_rot,
                            &mut report,
                        )? {
                            Verdict::Continue => {}
                            Verdict::Halt => {
                                report.halted_on_divergence = true;
                                finalize(&mut report, &acked);
                                return Ok(report);
                            }
                        }
                    }
                    Err(e) => {
                        return Err(SimFailure {
                            seed,
                            detail: format!("checkpoint failed on a healthy disk: {e}"),
                        })
                    }
                }
            }
            SimOp::Crash { countdown } => {
                trace!(
                    "TRACE arm crash countdown={countdown} muts={}",
                    fs.mutation_count()
                );
                fs.set_crash_after(*countdown);
            }
            SimOp::Reopen { short_reads } => {
                trace!(
                    "TRACE clean reopen short_reads={short_reads} muts={}",
                    fs.mutation_count()
                );
                drop(db);
                if shards.is_none() {
                    fs.set_short_reads(*short_reads);
                }
                db = reopen(&fs, &vfs, &root, opts, shards, seed, &mut report)?;
                wal_base = db.stats().salvage.map_or(wal_base, |r| r.replayed_through);
                match check(
                    &db,
                    &fs,
                    &mut acked,
                    &mut lsn_map,
                    None,
                    shards,
                    seed,
                    bit_rot,
                    &mut report,
                )? {
                    Verdict::Continue => {}
                    Verdict::Halt => {
                        report.halted_on_divergence = true;
                        finalize(&mut report, &acked);
                        return Ok(report);
                    }
                }
            }
        }
    }

    // Every schedule ends with a hard power cut — no warning, no flush —
    // and one final verified recovery.
    fs.crash_and_restore();
    report.crashes += 1;
    if bit_rot {
        rot_and_probe(&fs, &root, opts, shards, &acked, None, seed, &mut report)?;
    }
    db = reopen(&fs, &vfs, &root, opts, shards, seed, &mut report)?;
    match check(
        &db,
        &fs,
        &mut acked,
        &mut lsn_map,
        None,
        shards,
        seed,
        bit_rot,
        &mut report,
    )? {
        Verdict::Continue => {}
        Verdict::Halt => report.halted_on_divergence = true,
    }
    finalize(&mut report, &acked);
    Ok(report)
}

/// Close out a run's accounting: the acknowledged-statement total and how
/// many of them were group moves (including in-flight moves adopted by a
/// post-crash verification).
fn finalize(report: &mut SimReport, acked: &[String]) {
    report.sql_acked = acked.len();
    report.moves = acked.iter().filter(|s| parse_move(s).is_some()).count();
}

/// Dispatch to the right post-recovery verifier for this run mode.
#[allow(clippy::too_many_arguments)]
fn check(
    db: &ShardedDb,
    fs: &SimFs,
    acked: &mut Vec<String>,
    lsn_map: &mut Vec<u64>,
    in_flight: Option<&str>,
    shards: Option<usize>,
    seed: u64,
    bit_rot: bool,
    report: &mut SimReport,
) -> Result<Verdict, SimFailure> {
    assert_single_owner(db, seed)?;
    if bit_rot {
        verify_salvage(db, fs, acked, lsn_map, in_flight, shards, seed, report)
    } else {
        verify(db, acked, in_flight, shards, seed, report)
    }
}

/// After any recovery, every non-default group must live on
/// exactly one shard: the epoch reconcile in `ShardedDb::open` rolls a
/// half-committed move forward and evicts the losing copy, so dual
/// ownership surviving an open is a placement-protocol bug regardless of
/// whether the digests happen to match.
fn assert_single_owner(db: &ShardedDb, seed: u64) -> Result<(), SimFailure> {
    let mut owners: std::collections::HashMap<String, Vec<usize>> =
        std::collections::HashMap::new();
    for (i, shard) in db.shards().iter().enumerate() {
        for g in shard.catalog().groups() {
            // The derived "default" group legitimately exists on every
            // shard that ever appended outside an explicit group.
            if g.name() != "default" {
                owners.entry(g.name().to_string()).or_default().push(i);
            }
        }
    }
    for (name, held) in owners {
        if held.len() > 1 {
            return Err(SimFailure {
                seed,
                detail: format!(
                    "group `{name}` recovered onto {} shards {held:?}: placement reconcile \
                     left dual ownership behind",
                    held.len()
                ),
            });
        }
    }
    Ok(())
}

/// Bit-rot mode, right after a power cut: decay the durable medium, then
/// prove Strict still fails loudly on a fork of the rotted disk (see the
/// module docs).
#[allow(clippy::too_many_arguments)]
fn rot_and_probe(
    fs: &SimFs,
    root: &std::path::Path,
    opts: DurabilityOptions,
    shards: Option<usize>,
    acked: &[String],
    in_flight: Option<&str>,
    seed: u64,
    report: &mut SimReport,
) -> Result<(), SimFailure> {
    let flips = fs.inject_bit_rot();
    trace!(
        "TRACE bit rot: {flips} bit(s) flipped, muts={}",
        fs.mutation_count()
    );
    report.bit_rot_flips += flips;
    strict_probe(fs, root, opts, shards, acked, in_flight, seed)
}

/// Open (or re-open) the database, riding out injected faults: a crash
/// countdown tripping mid-recovery gets a power cycle and a fresh
/// attempt; a transient short read gets a plain retry. Any other failure
/// is a real recovery bug. Sharded mode clears fault plans first — its
/// parallel per-shard recovery would otherwise consume them in
/// nondeterministic thread order.
fn reopen(
    fs: &SimFs,
    vfs: &Arc<dyn Vfs>,
    root: &std::path::Path,
    opts: DurabilityOptions,
    shards: Option<usize>,
    seed: u64,
    report: &mut SimReport,
) -> Result<ShardedDb, SimFailure> {
    if shards.is_some() {
        fs.clear_faults();
    }
    let mut last_err = String::new();
    for _ in 0..MAX_REOPEN_ATTEMPTS {
        if trace_on() {
            trace_dump_disk(fs);
        }
        match open(Arc::clone(vfs), root, opts, shards) {
            Ok(db) => {
                report.recoveries += 1;
                return Ok(db);
            }
            Err(e) if fs.crashed() => {
                trace!("TRACE crash during recovery: {e}");
                report.crashes += 1;
                fs.crash_and_restore();
                last_err = e.to_string();
            }
            Err(e) if e.to_string().contains(SHORT_READ_MSG) => {
                last_err = e.to_string();
            }
            Err(e) => {
                if trace_on() {
                    trace_dump_disk(fs);
                }
                return Err(SimFailure {
                    seed,
                    detail: format!("recovery failed on a crash-consistent disk: {e}"),
                });
            }
        }
    }
    Err(SimFailure {
        seed,
        detail: format!(
            "recovery did not converge after {MAX_REOPEN_ATTEMPTS} attempts: {last_err}"
        ),
    })
}

/// `SIM_TRACE` diagnostic: print every file currently live on the
/// simulated disk, decoding WAL segments frame-by-frame (lsn and on-disk
/// size per frame, torn tails called out explicitly). Reading what a
/// crash actually left behind is usually the fastest way to understand a
/// recovery failure.
fn trace_dump_disk(fs: &SimFs) {
    for p in fs.live_files() {
        let data = fs.peek(&p).unwrap_or_default();
        let name = p.display().to_string();
        if !name.ends_with(".seg") {
            eprintln!("TRACE file {name} len={}", data.len());
            continue;
        }
        let mut out = format!("TRACE seg {name} len={}", data.len());
        if data.len() < 16 || &data[..8] != b"CHRWAL01" {
            out.push_str(" <bad header>");
            eprintln!("{out}");
            continue;
        }
        let first = u64::from_le_bytes(data[8..16].try_into().unwrap());
        out.push_str(&format!(" first={first} frames=["));
        let mut pos = 16usize;
        while pos + 16 <= data.len() {
            let len = u32::from_le_bytes(data[pos..pos + 4].try_into().unwrap()) as usize;
            let lsn = u64::from_le_bytes(data[pos + 8..pos + 16].try_into().unwrap());
            if pos + 8 + len > data.len() {
                out.push_str(&format!(
                    " torn(lsn={lsn},need={},have={})",
                    len,
                    data.len() - pos - 8
                ));
                pos = data.len();
                break;
            }
            out.push_str(&format!(" {lsn}({}B)", 8 + len));
            pos += 8 + len;
        }
        if pos < data.len() {
            out.push_str(&format!(" +{}B trailing", data.len() - pos));
        }
        out.push_str(" ]");
        eprintln!("{out}");
    }
}

enum Verdict {
    /// Recovered state matched a legal history; `acked` was updated if
    /// the in-flight statement turned out durable.
    Continue,
    /// Sharded relation replicas legally diverged mid-broadcast; stop.
    Halt,
}

/// Compare the recovered database against the oracle. Legal outcomes are
/// `replay(acked)` and `replay(acked + [in_flight])`; in sharded mode a
/// broadcast in-flight statement may also land on a per-shard prefix of
/// the two (see the module docs).
fn verify(
    db: &ShardedDb,
    acked: &mut Vec<String>,
    in_flight: Option<&str>,
    shards: Option<usize>,
    seed: u64,
    report: &mut SimReport,
) -> Result<Verdict, SimFailure> {
    let got = digest_sharded(db);
    let oracle_a = replay(acked, shards, seed)?;
    let digest_a = digest_sharded(&oracle_a);
    if got == digest_a {
        return Ok(Verdict::Continue);
    }
    let Some(sql) = in_flight else {
        return Err(diverged(seed, "acknowledged history", &got, &digest_a));
    };
    let mut with_in_flight = acked.clone();
    with_in_flight.push(sql.to_string());
    let oracle_b = replay_lenient(&with_in_flight, shards, seed);
    if let Some(b) = &oracle_b {
        if got == digest_sharded(b) {
            acked.push(sql.to_string());
            return Ok(Verdict::Continue);
        }
    }
    // A broadcast statement commits shard-by-shard: a power cut mid-way
    // legally applies it to a prefix of shards only (with one shard there
    // is no proper prefix, so this never matches).
    if let Some(b) = &oracle_b {
        if is_broadcast(sql) {
            let n = db.shard_count();
            let per: Vec<(bool, bool)> = (0..n)
                .map(|i| {
                    let g = digest_single(db.shard(i));
                    (
                        g == digest_single(oracle_a.shard(i)),
                        g == digest_single(b.shard(i)),
                    )
                })
                .collect();
            let prefix_ok = (0..=n).any(|j| {
                per.iter()
                    .enumerate()
                    .all(|(i, &(ma, mb))| if i < j { mb } else { ma })
            });
            if prefix_ok {
                report.halted_on_divergence = true;
                return Ok(Verdict::Halt);
            }
        }
    }
    let digest_b = oracle_b.as_ref().map(digest_sharded).unwrap_or_default();
    trace!(
        "== RECOVERED ==\n{got}== ORACLE A (acked) ==\n{digest_a}== ORACLE B (acked+in-flight) ==\n{digest_b}"
    );
    let vs = if digest_b.is_empty() {
        digest_a
    } else {
        digest_b
    };
    Err(diverged(
        seed,
        "both legal histories (with and without the in-flight statement)",
        &got,
        &vs,
    ))
}

fn diverged(seed: u64, what: &str, got: &str, expected: &str) -> SimFailure {
    let first_diff = got
        .lines()
        .zip(expected.lines())
        .find(|(g, e)| g != e)
        .map(|(g, e)| format!("first diff: recovered `{g}` vs oracle `{e}`"))
        .unwrap_or_else(|| {
            format!(
                "line counts differ: recovered {} vs oracle {}",
                got.lines().count(),
                expected.lines().count()
            )
        });
    SimFailure {
        seed,
        detail: format!("recovered state diverges from {what}; {first_diff}"),
    }
}

// ---- bit-rot verification -------------------------------------------------

/// Oracle digests for every prefix of the acknowledged history, plus the
/// in-flight extension when that candidate replays cleanly.
struct LegalDigests {
    /// `full[k]` = digest of `replay(acked[..k])`; length `acked.len() + 1`.
    full: Vec<String>,
    /// `per_shard[k][i]` = digest of shard `i` after `replay(acked[..k])`.
    per_shard: Vec<Vec<String>>,
    /// Digest of `replay(acked + [in_flight])`, when it replays.
    ext_full: Option<String>,
    /// Its per-shard digests.
    ext_per_shard: Option<Vec<String>>,
}

fn legal_digests(
    acked: &[String],
    in_flight: Option<&str>,
    shards: Option<usize>,
    seed: u64,
) -> Result<LegalDigests, SimFailure> {
    let mut db = fresh(shards, seed)?;
    let mut full = Vec::with_capacity(acked.len() + 1);
    let mut per_shard = Vec::with_capacity(acked.len() + 1);
    let mut push = |db: &ShardedDb| {
        let per = shard_digests(db);
        full.push(join_digests(&per));
        per_shard.push(per);
    };
    push(&db);
    for sql in acked {
        execute(&mut db, sql).map_err(|e| SimFailure {
            seed,
            detail: format!("oracle rejected acknowledged statement `{sql}`: {e}"),
        })?;
        push(&db);
    }
    // Extending the same oracle in place is exactly replay(acked + [sql]).
    let (ext_full, ext_per_shard) = match in_flight {
        Some(sql) if execute(&mut db, sql).is_ok() => {
            let per = shard_digests(&db);
            (Some(join_digests(&per)), Some(per))
        }
        _ => (None, None),
    };
    Ok(LegalDigests {
        full,
        per_shard,
        ext_full,
        ext_per_shard,
    })
}

/// The prefix `k` of the (possibly extended) acknowledged history that
/// shard `i`'s recovered state matches, preferring the longest plain
/// prefix and falling back to the in-flight extension.
fn shard_prefix_match(g: &str, i: usize, l: usize, legal: &LegalDigests) -> Option<usize> {
    (0..=l)
        .rev()
        .find(|&k| g == legal.per_shard[k][i])
        .or_else(|| {
            legal
                .ext_per_shard
                .as_ref()
                .and_then(|e| (g == e[i]).then_some(l + 1))
        })
}

/// Bit-rot-mode verification: the salvage open must land on *some prefix*
/// of the acknowledged history (possibly extended by the in-flight
/// statement), and its [`chronicle_db::SalvageReport`] must name the cut.
///
/// The single-topology check is exact: `lsn_map[i]` carries the WAL
/// high-water lsn observed right after `acked[i]` was acknowledged
/// (statements may log zero records — a no-op DELETE is acknowledged
/// without touching the log — so statement index and lsn are *not*
/// interchangeable), and the report's `replayed_through` pins precisely
/// which acknowledged statements survived — the driver demands the
/// recovered state equal that prefix and `lost` start at exactly
/// `replayed_through + 1`. In sharded mode each shard has its own LSN
/// sequence, so the driver checks the per-shard prefix property instead
/// and halts the schedule when shards land on different prefixes.
#[allow(clippy::too_many_arguments)]
fn verify_salvage(
    db: &ShardedDb,
    fs: &SimFs,
    acked: &mut Vec<String>,
    lsn_map: &mut Vec<u64>,
    in_flight: Option<&str>,
    shards: Option<usize>,
    seed: u64,
    report: &mut SimReport,
) -> Result<Verdict, SimFailure> {
    let got = digest_sharded(db);
    let legal = legal_digests(acked, in_flight, shards, seed)?;
    let l = acked.len();
    let Some(sr) = db.stats().salvage else {
        return Err(SimFailure {
            seed,
            detail: "a salvage open produced no salvage report".into(),
        });
    };
    // Quarantine means preserved: every file the report names must exist.
    for path in sr
        .checkpoints_quarantined
        .iter()
        .chain(sr.segments_quarantined.iter().map(|q| &q.path))
    {
        if fs.peek(path).is_none() {
            return Err(SimFailure {
                seed,
                detail: format!(
                    "salvage report names quarantined file {} but nothing is there",
                    path.display()
                ),
            });
        }
    }
    if !sr.is_trivial() {
        report.salvaged_opens += 1;
    }
    trace!("TRACE salvage report: {sr}");

    if shards.is_none() {
        // `lost` must dovetail with `replayed_through`: the first lost
        // lsn is always the one right after the last record replayed.
        if let Some(lost) = sr.lost {
            if lost.first != sr.replayed_through + 1 {
                return Err(SimFailure {
                    seed,
                    detail: format!(
                        "salvage report is inconsistent: replayed through lsn {} but reports \
                         loss starting at lsn {}",
                        sr.replayed_through, lost.first
                    ),
                });
            }
        }
        debug_assert_eq!(
            lsn_map.len(),
            l,
            "lsn_map tracks acked one-for-one in single topology"
        );
        let r = sr.replayed_through;
        let high = lsn_map.last().copied().unwrap_or(0);
        if r > high {
            // More records survived than the acknowledged history ever
            // wrote: the extra tail can only be the in-flight statement's.
            let (Some(sql), Some(ext)) = (in_flight, &legal.ext_full) else {
                return Err(SimFailure {
                    seed,
                    detail: format!(
                        "salvage replayed through lsn {r} but the acknowledged history \
                         wrote only {high} records{}",
                        if in_flight.is_some() {
                            " (and the in-flight candidate does not replay)"
                        } else {
                            " and none was in flight"
                        }
                    ),
                });
            };
            if got != *ext {
                return Err(diverged(
                    seed,
                    "the acknowledged history plus the in-flight statement",
                    &got,
                    ext,
                ));
            }
            acked.push(sql.to_string());
            lsn_map.push(r);
            return Ok(Verdict::Continue);
        }
        // The acknowledged prefix covered by the replay: every statement
        // whose high-water lsn is at or below the cut. Zero-record
        // statements at the boundary ride along with their predecessor,
        // which is digest-exact because they changed no state.
        let k = lsn_map.partition_point(|&x| x <= r);
        if got != legal.full[k] {
            return Err(diverged(
                seed,
                &format!("the {k}-statement prefix the salvage report claims"),
                &got,
                &legal.full[k],
            ));
        }
        if k < l {
            // Acknowledged statements were dropped: the report must say
            // so explicitly — silent loss is the cardinal sin here.
            if sr.lost.is_none() {
                return Err(SimFailure {
                    seed,
                    detail: format!(
                        "{} acknowledged statements were dropped but the salvage report \
                         lists no loss",
                        l - k
                    ),
                });
            }
            trace!(
                "TRACE salvage dropped {} acked statement(s); rebasing to prefix {k}",
                l - k
            );
            report.acked_lost += l - k;
            acked.truncate(k);
            lsn_map.truncate(k);
        }
        return Ok(Verdict::Continue);
    }

    // ---- sharded: per-shard prefix property.
    // Fast paths mirror the non-rot verifier: everything survived, with
    // or without the in-flight statement.
    if got == legal.full[l] {
        return Ok(Verdict::Continue);
    }
    if let (Some(sql), Some(ext)) = (in_flight, &legal.ext_full) {
        if got == *ext {
            acked.push(sql.to_string());
            return Ok(Verdict::Continue);
        }
    }
    let n = db.shard_count();
    let mut ks = Vec::with_capacity(n);
    for i in 0..n {
        let g = digest_single(db.shard(i));
        let Some(k) = shard_prefix_match(&g, i, l, &legal) else {
            return Err(SimFailure {
                seed,
                detail: format!(
                    "shard {i} recovered to a state matching no prefix of the acknowledged \
                     history ({l} statements)"
                ),
            });
        };
        ks.push(k);
    }
    // Shards landed on different prefixes: rot cost one shard more than
    // another, or a mid-broadcast cut legally diverged the replicas. Any
    // dropped acknowledged work must be confessed; either way the oracle
    // cannot model broadcasts against diverged replicas, so halt.
    let min_k = *ks.iter().min().expect("at least one shard");
    if min_k < l {
        report.acked_lost += l - min_k;
        if !sr.data_lost() {
            return Err(SimFailure {
                seed,
                detail: format!(
                    "shards dropped acknowledged statements (per-shard prefixes {ks:?} of \
                     {l}) but the salvage report admits no loss"
                ),
            });
        }
    }
    trace!("TRACE shards on prefixes {ks:?} of {l}; halting");
    Ok(Verdict::Halt)
}

/// Strict recovery must never invent state: on a fork of the rotted
/// disk, [`RecoveryPolicy::Strict`] either refuses loudly or lands
/// exactly on a legal prefix of the acknowledged history (rot in the
/// final segment's tail is indistinguishable from a clean torn write,
/// which Strict legally repairs in place). Succeeding onto anything else
/// is a failure. The fork keeps the probe from disturbing the real run.
fn strict_probe(
    fs: &SimFs,
    root: &std::path::Path,
    opts: DurabilityOptions,
    shards: Option<usize>,
    acked: &[String],
    in_flight: Option<&str>,
    seed: u64,
) -> Result<(), SimFailure> {
    let forked = fs.fork();
    // The probe is about rot, not scheduled faults — and sharded recovery
    // would consume an armed countdown in nondeterministic thread order.
    forked.clear_faults();
    let strict = DurabilityOptions {
        recovery: RecoveryPolicy::Strict,
        ..opts
    };
    let vfs: Arc<dyn Vfs> = Arc::new(forked);
    let Ok(db) = open(vfs, root, strict, shards) else {
        return Ok(()); // refused loudly: exactly what Strict is for
    };
    let legal = legal_digests(acked, in_flight, shards, seed)?;
    let l = acked.len();
    let ok = (0..db.shard_count())
        .all(|i| shard_prefix_match(&digest_single(db.shard(i)), i, l, &legal).is_some());
    if ok {
        Ok(())
    } else {
        Err(SimFailure {
            seed,
            detail: "strict recovery opened a rotted disk onto a state matching no prefix of \
                     the acknowledged history (it must refuse, or repair only a torn tail)"
                .into(),
        })
    }
}

fn is_broadcast(sql: &str) -> bool {
    matches!(
        parse(sql),
        Ok(Statement::CreateRelation { .. }
            | Statement::InsertRelation { .. }
            | Statement::UpdateRelation { .. }
            | Statement::DeleteRelation { .. })
    )
}

/// The naive oracle: a fresh in-memory database replaying `history`.
/// Every statement in an acknowledged history succeeded against the
/// durable engine, so a replay rejection is itself a correctness signal.
fn replay(history: &[String], shards: Option<usize>, seed: u64) -> Result<ShardedDb, SimFailure> {
    let mut db = fresh(shards, seed)?;
    for sql in history {
        execute(&mut db, sql).map_err(|e| SimFailure {
            seed,
            detail: format!("oracle rejected acknowledged statement `{sql}`: {e}"),
        })?;
    }
    Ok(db)
}

/// Oracle replay for a *candidate* history (acked + in-flight): a
/// rejection just means the candidate is not the branch that survived.
fn replay_lenient(history: &[String], shards: Option<usize>, seed: u64) -> Option<ShardedDb> {
    let mut db = fresh(shards, seed).ok()?;
    for sql in history {
        execute(&mut db, sql).ok()?;
    }
    Some(db)
}

fn fresh(shards: Option<usize>, seed: u64) -> Result<ShardedDb, SimFailure> {
    match shards {
        None => Ok(ChronicleDb::new().into()),
        Some(n) => ShardedDb::new(n).map_err(|e| SimFailure {
            seed,
            detail: format!("building oracle: {e}"),
        }),
    }
}

// ---- state digest ---------------------------------------------------------

/// A deterministic text rendering of one database's complete logical
/// state: every persistent-view snapshot byte-for-byte (periodic families
/// included), relation current versions, chronicle windows and counters,
/// and group watermarks. Two databases are state-equivalent iff their
/// digests are equal; the text form makes the first diverging line
/// reportable.
fn digest_single(db: &ChronicleDb) -> String {
    let mut out = String::new();
    let mut views = db.snapshot_views();
    views.sort();
    for (name, bytes) in views {
        writeln!(out, "view {name} {bytes:?}").expect("string write");
    }
    for (name, rel) in db.catalog().relations() {
        let cur = rel.current();
        let mut rows: Vec<String> = cur.to_vec().iter().map(|t| format!("{t:?}")).collect();
        rows.sort_unstable();
        writeln!(out, "relation {name} {rows:?}").expect("string write");
    }
    for c in db.catalog().chronicles() {
        let rows: Vec<String> = c.scan_window().map(|t| format!("{t:?}")).collect();
        writeln!(
            out,
            "chronicle {} last_seq={:?} total={} window={rows:?}",
            c.name(),
            c.last_seq(),
            c.total_appended()
        )
        .expect("string write");
    }
    for g in db.catalog().groups() {
        // Only the watermark is durable group state: a checkpoint's
        // `GroupImage` persists `high_water` and the last chronon, not
        // the full SN→chronon timeline.
        writeln!(
            out,
            "group {} high_water={:?} now={:?}",
            g.name(),
            g.high_water(),
            g.now()
        )
        .expect("string write");
    }
    out
}

fn shard_digests(db: &ShardedDb) -> Vec<String> {
    db.shards().iter().map(digest_single).collect()
}

/// The whole-database digest: every shard's, labelled, in shard order.
fn join_digests(per_shard: &[String]) -> String {
    let mut out = String::new();
    for (i, d) in per_shard.iter().enumerate() {
        writeln!(out, "-- shard {i}").expect("string write");
        out.push_str(d);
    }
    out
}

fn digest_sharded(db: &ShardedDb) -> String {
    join_digests(&shard_digests(db))
}

// ---- leader/follower node set ---------------------------------------------

/// Salt for the follower's filesystem seed (distinct medium, distinct
/// fault stream).
const FOLLOWER_FS_SALT: u64 = 0xf0_110e_44ba_d5a1;

/// Salt for the driver's network-event RNG.
const NET_SEED_SALT: u64 = 0x0000_e7ca_11d0_5a17;

/// Salt folded (scaled by the promotion ordinal) into each post-promotion
/// fresh follower's filesystem seed, so every incarnation draws an
/// independent fault stream.
const PROMOTION_FS_SALT: u64 = 0x00fa_1107_ead0_0bad;

/// Stamped sessions driven by the stamped workload.
const STAMPED_CLIENTS: u64 = 3;

/// Both nodes' durability: small segments, so shipping crosses many
/// segment boundaries, and fsync on, so an acknowledged record survives
/// a power cut.
const PAIR_OPTS: DurabilityOptions = DurabilityOptions {
    segment_bytes: 1024,
    fsync: true,
    auto_checkpoint_records: None,
    keep_checkpoints: 2,
    recovery: RecoveryPolicy::Strict,
};

/// What one leader/follower run did (diagnostics for gates and tests).
/// Counters of faults outside the run's fault table stay zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetReport {
    /// The seed the run replayed.
    pub seed: u64,
    /// Shard count of every topology in the run.
    pub shards: usize,
    /// Statements acknowledged: schedule SQL on leader durability, or
    /// stamps semi-synchronously (leader durable *and* follower coverage
    /// observed).
    pub acked: usize,
    /// Shipper pump cycles driven.
    pub pump_cycles: usize,
    /// Connections dropped with bytes in flight.
    pub connection_cuts: usize,
    /// Power cuts under the follower (each followed by a verified
    /// recovery and a resume from the applied watermark).
    pub follower_kills: usize,
    /// Power cuts under the leader (each followed by a verified recovery
    /// and a follower-not-ahead check).
    pub leader_kills: usize,
    /// Leader deaths, each followed by a fenced follower promotion.
    pub promotions: usize,
    /// Stale-term streams offered to a promoted lineage's follower — each
    /// must be refused with a typed fencing error.
    pub fencing_probes: usize,
    /// Retries of already-acknowledged stamps (simulated lost acks) — each
    /// must be answered from the dedupe cache without changing state.
    pub dedupe_retries: usize,
    /// Network partitions injected (bytes held, not lost).
    pub partitions: usize,
    /// Heartbeat frames delivered twice (benign retransmits).
    pub heartbeat_duplicates: usize,
    /// WAL bytes that entered the pipe.
    pub bytes_shipped: u64,
    /// Bytes lost in flight to cuts, kills and leader deaths.
    pub bytes_lost_in_flight: u64,
}

impl std::ops::AddAssign for NetReport {
    /// Sum every counter (sweep totals); `seed` and `shards` keep the
    /// left side's values.
    fn add_assign(&mut self, r: NetReport) {
        self.acked += r.acked;
        self.pump_cycles += r.pump_cycles;
        self.connection_cuts += r.connection_cuts;
        self.follower_kills += r.follower_kills;
        self.leader_kills += r.leader_kills;
        self.promotions += r.promotions;
        self.fencing_probes += r.fencing_probes;
        self.dedupe_retries += r.dedupe_retries;
        self.partitions += r.partitions;
        self.heartbeat_duplicates += r.heartbeat_duplicates;
        self.bytes_shipped += r.bytes_shipped;
        self.bytes_lost_in_flight += r.bytes_lost_in_flight;
    }
}

/// Driver-decision RNG: splitmix64, so the root crate needs no external
/// randomness (the workspace test RNG lives in a dev-only crate).
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// The fault vocabulary of leader/follower runs (module docs).
#[derive(Debug, Clone, Copy)]
enum Fault {
    /// A few pump cycles, partial delivery: lag is the normal condition.
    Ship,
    /// The leader runs ahead; nothing moves on the wire.
    Idle,
    /// The link stalls: bytes queue but nothing arrives.
    Partition,
    /// The partition heals; queued bytes flow again.
    Heal,
    /// A retransmit duplicates the freshest heartbeat frame (the last
    /// frame every pump cycle sends). Heartbeats carry monotone durable
    /// frontiers, so the duplicate must be absorbed without effect.
    DuplicateHeartbeat,
    /// A lost ack: some session retries a statement the leader already
    /// acknowledged. The dedupe cache must answer it without changing any
    /// state.
    LostAck,
    /// The connection drops mid-flight; the follower reattaches through a
    /// reopen from disk.
    Cut,
    /// Power cut under the follower, then a verified recovery.
    FollowerKill,
    /// Power cut under the leader, mid-segment-stream, then a verified
    /// recovery.
    LeaderKill,
    /// The leader dies for good: fenced promotion, client redirect.
    LeaderDeath,
}

/// A mode's fault table: `(last roll, fault)` rows in ascending order.
/// Each round rolls `0..100` and takes the first row the roll does not
/// exceed.
type FaultTable = [(u64, Fault)];

const REPLICATION_FAULTS: &FaultTable = &[
    (54, Fault::Ship),
    (69, Fault::Idle),
    (79, Fault::Cut),
    (89, Fault::FollowerKill),
    (99, Fault::LeaderKill),
];

const FAILOVER_FAULTS: &FaultTable = &[
    (44, Fault::Ship),
    (54, Fault::Partition),
    (64, Fault::Heal),
    (72, Fault::DuplicateHeartbeat),
    (79, Fault::LostAck),
    (87, Fault::Cut),
    (93, Fault::FollowerKill),
    (99, Fault::LeaderDeath),
];

/// What a mode's clients do each round, and when a statement counts as
/// acknowledged.
enum Workload {
    /// The seeded schedule's SQL and group moves, one op per round,
    /// acknowledged on leader durability (fsync on). Group moves log
    /// `GroupImport`/`GroupEvict` records into the same WAL streams the
    /// shipper tails, so the follower must reproduce the leader's
    /// placement too.
    Schedule(Vec<SimOp>),
    /// Stamped client sessions, at most one statement in flight each,
    /// acknowledged semi-synchronously.
    Stamped(Vec<SimClient>),
}

/// One stamped client session: at most one statement in flight, retried
/// with the same `(session, seq)` stamp until acknowledged.
struct SimClient {
    session: u64,
    seq: u64,
    /// Issued but not yet semi-sync acknowledged: `(seq, sql)`.
    pending: Option<(u64, String)>,
    /// Highest acknowledged seq (0 = none yet).
    acked_seq: u64,
    /// The most recently acknowledged statement, kept for lost-ack
    /// retry probes.
    last_acked: Option<(u64, String)>,
}

/// One leader→follower shipping session: cursors, in-flight bytes, and
/// the receiver's frame reassembly. A cut throws the whole thing away —
/// exactly what a dropped TCP connection does.
struct Session {
    shipper: Shipper,
    pipe: SimPipe,
    dec: FrameDecoder,
}

impl Session {
    /// (Re)connect: resume from the follower's applied watermark. The
    /// small chunk forces many frames per segment, so cuts land
    /// mid-segment and mid-frame.
    fn connect(follower: &FollowerDb) -> Session {
        trace!("TRACE reconnect applied={:?}", follower.applied_lsns());
        Session {
            shipper: Shipper::new(&follower.applied_lsns(), 48),
            pipe: SimPipe::new(),
            dec: FrameDecoder::new(),
        }
    }
}

/// One node's simulated disk and the database root on it.
struct Disk {
    fs: SimFs,
    root: PathBuf,
}

impl Disk {
    fn new(fs_seed: u64, root: impl Into<PathBuf>) -> Disk {
        Disk {
            fs: SimFs::new(fs_seed),
            root: root.into(),
        }
    }

    fn open_leader(&self, shards: usize) -> chronicle_types::Result<ShardedDb> {
        ShardedDb::open_with_vfs(Arc::new(self.fs.clone()), &self.root, shards, PAIR_OPTS)
    }

    fn open_follower(&self, shards: usize) -> chronicle_types::Result<FollowerDb> {
        FollowerDb::open_with_vfs(Arc::new(self.fs.clone()), &self.root, shards, PAIR_OPTS)
    }
}

/// The live topology of a leader/follower run — the leader and the
/// follower, each on its own disk, and the shipping session between
/// them — plus the run's driver RNG and report, which every node
/// operation advances. Operations that replace a node take the set by
/// value: the old handle must be released before its disk is reopened.
struct NodeSet {
    seed: u64,
    shards: usize,
    leader: ShardedDb,
    leader_disk: Disk,
    follower: FollowerDb,
    follower_disk: Disk,
    session: Session,
    rng: Mix,
    report: NetReport,
}

/// Run one seeded replication schedule: the schedule workload under
/// seeded connection cuts and power cuts on either node (module docs).
/// `shards` sets both topologies.
pub fn run_replication_seed(
    seed: u64,
    shards: usize,
    cfg: &ScheduleConfig,
) -> Result<NetReport, SimFailure> {
    let ops = generate(seed, cfg).ops;
    run_pair(
        seed,
        shards,
        ops.len(),
        REPLICATION_FAULTS,
        Workload::Schedule(ops),
    )
}

/// Run one seeded failover schedule: stamped clients acknowledged
/// semi-synchronously, seeded partitions, heartbeat duplication, lost
/// acks, cuts, follower power cuts and leader deaths, each death followed
/// by a fenced promotion of the follower and a client redirect (module
/// docs). `cfg.ops` sets the number of rounds (at least 10).
pub fn run_failover_seed(
    seed: u64,
    shards: usize,
    cfg: &ScheduleConfig,
) -> Result<NetReport, SimFailure> {
    let clients = (1..=STAMPED_CLIENTS)
        .map(|session| SimClient {
            session,
            seq: 0,
            pending: None,
            acked_seq: 0,
            last_acked: None,
        })
        .collect();
    run_pair(
        seed,
        shards,
        cfg.ops.max(10),
        FAILOVER_FAULTS,
        Workload::Stamped(clients),
    )
}

/// The one leader/follower loop. Every round is a workload step, a fault
/// drawn from `faults`, the fault, and the workload's ack.
fn run_pair(
    seed: u64,
    shards: usize,
    rounds: usize,
    faults: &FaultTable,
    mut workload: Workload,
) -> Result<NetReport, SimFailure> {
    let mut nodes = NodeSet::open(seed, shards.max(1))?;
    // Every statement the current leader applied, in first-apply order:
    // the oracle's input.
    let mut history: Vec<String> = Vec::new();
    workload.start(&mut nodes, &mut history)?;
    for round in 0..rounds {
        if !workload.step(round, &mut nodes, &mut history)? {
            continue;
        }
        let roll = nodes.rng.below(100);
        let fault = faults
            .iter()
            .find(|&&(last, _)| roll <= last)
            .map(|&(_, fault)| fault)
            .expect("a fault table covers every roll below 100");
        nodes = nodes.inject(fault, &mut workload, &mut history)?;
        workload.ack(&mut nodes);
    }
    nodes = workload.finish(nodes, &mut history)?;
    // The survivors, exactly once each: the leader equals the
    // never-crashed oracle, and the follower converges to it.
    nodes.leader_matches(&history, "the history after the final drain")?;
    nodes.converge()
}

impl Workload {
    /// The stamped sessions (none for the schedule workload).
    fn clients(&mut self) -> &mut [SimClient] {
        match self {
            Workload::Schedule(_) => &mut [],
            Workload::Stamped(clients) => clients,
        }
    }

    /// Stamped prelude: per-session DDL (own group, chronicle, and
    /// counting view, so every session's appends route independently and
    /// stay per-session monotone in the SEQ column), fully shipped before
    /// any fault fires.
    fn start(&self, nodes: &mut NodeSet, history: &mut Vec<String>) -> Result<(), SimFailure> {
        let Workload::Stamped(clients) = self else {
            return Ok(());
        };
        for c in clients {
            let k = c.session;
            for sql in [
                format!("CREATE GROUP g{k}"),
                format!("CREATE CHRONICLE c{k} (sn SEQ, x INT) IN GROUP g{k}"),
                format!("CREATE VIEW v{k} AS SELECT x, COUNT(*) AS cnt FROM c{k} GROUP BY x"),
            ] {
                nodes.leader.execute(&sql).map_err(|e| SimFailure {
                    seed: nodes.seed,
                    detail: format!("prelude statement `{sql}` rejected: {e}"),
                })?;
                history.push(sql);
            }
        }
        nodes.catch_up()
    }

    /// The round's client work. The schedule workload executes op `round`
    /// and acknowledges it on the leader's `Ok`; `false` skips the round
    /// (the schedule's checkpoint/crash/reopen meta-ops belong to the
    /// single-node protocol, and a benign semantic rejection is not part
    /// of the history). Every idle stamped session issues a fresh
    /// statement.
    fn step(
        &mut self,
        round: usize,
        nodes: &mut NodeSet,
        history: &mut Vec<String>,
    ) -> Result<bool, SimFailure> {
        match self {
            Workload::Schedule(ops) => {
                let sql = match &ops[round] {
                    SimOp::Sql(sql) => sql.clone(),
                    SimOp::MoveGroup { group, to } => render_move(group, *to),
                    _ => return Ok(false),
                };
                if execute(&mut nodes.leader, &sql).is_err() {
                    return Ok(false);
                }
                history.push(sql);
                nodes.report.acked += 1;
            }
            Workload::Stamped(clients) => {
                for c in clients.iter_mut().filter(|c| c.pending.is_none()) {
                    issue(nodes, c, history)?;
                }
            }
        }
        Ok(true)
    }

    /// Acknowledge every pending stamp the follower now covers — the
    /// semi-synchronous ack point. Schedule statements were acknowledged
    /// when the leader returned.
    fn ack(&mut self, nodes: &mut NodeSet) {
        for c in self.clients() {
            if let Some((seq, _)) = c.pending {
                if nodes.follower.db().session_last_seq(c.session) >= Some(seq) {
                    let (seq, sql) = c.pending.take().expect("just matched");
                    trace!("TRACE ack session={} seq={}", c.session, seq);
                    c.acked_seq = seq;
                    c.last_acked = Some((seq, sql));
                    nodes.report.acked += 1;
                }
            }
        }
    }

    /// Stamped runs prove fencing and the dedupe cache on every seed: a
    /// forced promotion if the dice never rolled one, then a final drain
    /// that must acknowledge every statement, then a guaranteed lost-ack
    /// retry.
    fn finish(
        &mut self,
        mut nodes: NodeSet,
        history: &mut Vec<String>,
    ) -> Result<NodeSet, SimFailure> {
        if matches!(self, Workload::Schedule(_)) {
            return Ok(nodes);
        }
        if nodes.report.promotions == 0 {
            nodes = nodes.promote(self.clients(), history)?;
        }
        // Every pending statement is applied on the current leader
        // (promotion re-applies the casualties), so full catch-up must
        // cover every stamp.
        nodes.catch_up()?;
        self.ack(&mut nodes);
        let seed = nodes.seed;
        let clients = self.clients();
        if let Some(c) = clients.iter().find(|c| c.pending.is_some()) {
            let (seq, sql) = c.pending.as_ref().expect("just found");
            return Err(SimFailure {
                seed,
                detail: format!(
                    "session {} statement seq {seq} (`{sql}`) never reached the follower \
                     after full catch-up",
                    c.session
                ),
            });
        }
        let probe = clients
            .iter()
            .find(|c| c.last_acked.is_some())
            .ok_or_else(|| SimFailure {
                seed,
                detail: "no statement was ever acknowledged; the run proved nothing".into(),
            })?;
        if retry_acked(&mut nodes.leader, probe, seed)? {
            nodes.report.dedupe_retries += 1;
        }
        Ok(nodes)
    }
}

impl NodeSet {
    /// A fresh leader and follower on fresh disks, connected.
    fn open(seed: u64, shards: usize) -> Result<NodeSet, SimFailure> {
        let leader_disk = Disk::new(seed ^ FS_SEED_SALT, "/sim/leader");
        let leader = leader_disk.open_leader(shards).map_err(|e| SimFailure {
            seed,
            detail: format!("leader open failed on a fresh disk: {e}"),
        })?;
        let follower_disk = Disk::new(seed ^ FS_SEED_SALT ^ FOLLOWER_FS_SALT, "/sim/follower");
        let follower = follower_disk
            .open_follower(shards)
            .map_err(|e| SimFailure {
                seed,
                detail: format!("follower open failed on a fresh disk: {e}"),
            })?;
        Ok(NodeSet {
            seed,
            shards,
            leader,
            leader_disk,
            session: Session::connect(&follower),
            follower,
            follower_disk,
            rng: Mix(seed ^ NET_SEED_SALT),
            report: NetReport {
                seed,
                shards,
                ..NetReport::default()
            },
        })
    }

    /// Inject one fault; the workload supplies the clients a lost ack or
    /// a promotion acts on, and decides whether a recovered follower is
    /// caught straight back up.
    fn inject(
        mut self,
        fault: Fault,
        workload: &mut Workload,
        history: &mut Vec<String>,
    ) -> Result<NodeSet, SimFailure> {
        match fault {
            Fault::Ship => {
                for _ in 0..1 + self.rng.below(3) {
                    self.pump()?;
                }
                self.deliver(false)?;
            }
            Fault::Idle => {}
            Fault::Partition => {
                if !self.session.pipe.is_partitioned() {
                    trace!("TRACE fault partition");
                    self.session.pipe.partition();
                    self.report.partitions += 1;
                }
            }
            Fault::Heal => {
                if self.session.pipe.is_partitioned() {
                    trace!("TRACE heal partition");
                    self.session.pipe.heal();
                }
                self.deliver(false)?;
            }
            Fault::DuplicateHeartbeat => {
                self.pump()?;
                self.session.pipe.duplicate_last();
                self.report.heartbeat_duplicates += 1;
                self.deliver(false)?;
            }
            Fault::LostAck => {
                let clients = workload.clients();
                let pick = self.rng.below(clients.len() as u64) as usize;
                if let Some(c) = clients.get(pick) {
                    if retry_acked(&mut self.leader, c, self.seed)? {
                        self.report.dedupe_retries += 1;
                    }
                }
            }
            Fault::Cut => {
                self.cut("cut");
                self.report.connection_cuts += 1;
                return self.reopen_follower(false);
            }
            Fault::FollowerKill => {
                self.cut("follower-kill");
                self.report.follower_kills += 1;
                self = self.reopen_follower(true)?;
                self.follower_is_prefix(history)?;
                // Semi-synchronous acks: the leader is alive, so the
                // follower is caught straight back up — an acknowledged
                // stamp is never left uncovered while the only durable
                // copy sits on a node that could die next.
                if let Workload::Stamped(_) = workload {
                    self.catch_up()?;
                }
            }
            Fault::LeaderKill => return self.recover_leader(history),
            Fault::LeaderDeath => return self.promote(workload.clients(), history),
        }
        Ok(self)
    }

    /// The leader's durable frontier, per shard.
    fn leader_durable(&self) -> Result<Vec<u64>, SimFailure> {
        (0..self.shards)
            .map(|s| {
                WalSource::last_durable_lsn(&self.leader, s).map_err(|e| SimFailure {
                    seed: self.seed,
                    detail: format!("leader wal probe: {e}"),
                })
            })
            .collect()
    }

    /// One leader-side pump: shipper events become wire frames in the
    /// pipe, followed by a heartbeat carrying the durable frontier.
    /// Returns the shipper's caught-up verdict.
    fn pump(&mut self) -> Result<bool, SimFailure> {
        let mut events = Vec::new();
        let caught = self
            .session
            .shipper
            .pump(&self.leader, &mut |e| {
                events.push(e);
                Ok(())
            })
            .map_err(|e| SimFailure {
                seed: self.seed,
                detail: format!("shipper failed against a live leader: {e}"),
            })?;
        for event in events {
            if trace_on() {
                match &event {
                    ShipEvent::Start { shard, first_lsn } => {
                        eprintln!("TRACE ship start shard={shard} seg={first_lsn}")
                    }
                    ShipEvent::Bytes {
                        shard,
                        first_lsn,
                        offset,
                        bytes,
                    } => eprintln!(
                        "TRACE ship bytes shard={shard} seg={first_lsn} off={offset} n={}",
                        bytes.len()
                    ),
                    ShipEvent::Seal { shard, first_lsn } => {
                        eprintln!("TRACE ship seal shard={shard} seg={first_lsn}")
                    }
                }
            }
            let msg = match event {
                ShipEvent::Start { shard, first_lsn } => Message::SegStart {
                    shard: shard as u32,
                    first_lsn,
                    term: self.leader.term(),
                },
                ShipEvent::Bytes {
                    shard,
                    first_lsn,
                    offset,
                    bytes,
                } => {
                    self.report.bytes_shipped += bytes.len() as u64;
                    Message::SegBytes {
                        shard: shard as u32,
                        first_lsn,
                        offset,
                        bytes,
                    }
                }
                ShipEvent::Seal { shard, first_lsn } => Message::SegSeal {
                    shard: shard as u32,
                    first_lsn,
                },
            };
            self.session.pipe.send(&encode_frame(&msg.encode()));
        }
        let durable = self.leader_durable()?;
        self.session
            .pipe
            .send(&encode_frame(&Message::Heartbeat { durable }.encode()));
        self.report.pump_cycles += 1;
        Ok(caught)
    }

    /// Drain the pipe into the follower. With `all` false the RNG
    /// re-chunks deliveries and may leave a suffix in flight (to be lost
    /// if the next event is a cut); with `all` true everything queued is
    /// applied. A partitioned pipe delivers nothing (the bytes stay
    /// queued, not lost).
    fn deliver(&mut self, all: bool) -> Result<(), SimFailure> {
        let seed = self.seed;
        let session = &mut self.session;
        if session.pipe.is_partitioned() {
            return Ok(());
        }
        while session.pipe.pending() > 0 {
            if !all && self.rng.below(5) == 0 {
                return Ok(()); // leave the rest in flight
            }
            let max = if all {
                session.pipe.pending()
            } else {
                1 + self.rng.below(session.pipe.pending() as u64) as usize
            };
            let bytes = session.pipe.deliver(max);
            session.dec.feed(&bytes);
            loop {
                let payload = session.dec.next_frame().map_err(|e| SimFailure {
                    seed,
                    detail: format!("follower rejected a shipped frame: {e}"),
                })?;
                let Some(payload) = payload else { break };
                let msg = Message::decode(&payload).map_err(|e| SimFailure {
                    seed,
                    detail: format!("follower rejected a shipped message: {e}"),
                })?;
                apply_shipped(&mut self.follower, msg, seed)?;
            }
        }
        Ok(())
    }

    /// Drop the connection: whatever is in flight is lost.
    fn cut(&mut self, fault: &str) {
        trace!(
            "TRACE fault {fault} in_flight={}",
            self.session.pipe.pending()
        );
        self.report.bytes_lost_in_flight += self.session.pipe.cut() as u64;
    }

    /// Uninterrupted catch-up: heal any partition, then pump and deliver
    /// until the shipper reports caught-up and the pipe is dry.
    fn catch_up(&mut self) -> Result<(), SimFailure> {
        self.session.pipe.heal();
        let mut guard = 0u32;
        loop {
            let caught = self.pump()?;
            self.deliver(true)?;
            if caught && self.session.pipe.pending() == 0 {
                return Ok(());
            }
            guard += 1;
            if guard > 100_000 {
                return Err(SimFailure {
                    seed: self.seed,
                    detail: "catch-up did not converge".into(),
                });
            }
        }
    }

    /// Tear the follower down and reopen it from its disk — a dropped
    /// connection (`crash` false) or a power cut (`crash` true, unsynced
    /// bytes seeded away first) — and reconnect. The resume point is
    /// re-derived from durable state, never from memory (a mid-rewrite
    /// segment legally rolls the watermark back).
    fn reopen_follower(mut self, crash: bool) -> Result<NodeSet, SimFailure> {
        // The ingest owns the WAL writers recovery is about to read.
        drop(self.follower);
        if crash {
            self.follower_disk.fs.crash_and_restore();
        }
        self.follower = self
            .follower_disk
            .open_follower(self.shards)
            .map_err(|e| SimFailure {
                seed: self.seed,
                detail: if crash {
                    format!("follower recovery failed after a power cut: {e}")
                } else {
                    format!("follower reopen failed after a dropped connection: {e}")
                },
            })?;
        self.session = Session::connect(&self.follower);
        Ok(self)
    }

    /// Power cut under the leader, then recovery. Kills strike between
    /// statements and every acknowledged record was fsynced, so recovery
    /// is exact — and the follower must never have applied a record the
    /// recovered leader does not hold (ship-only-flushed, end to end).
    fn recover_leader(mut self, history: &[String]) -> Result<NodeSet, SimFailure> {
        self.cut("leader-kill");
        self.report.leader_kills += 1;
        drop(self.leader);
        self.leader_disk.fs.crash_and_restore();
        self.leader = self
            .leader_disk
            .open_leader(self.shards)
            .map_err(|e| SimFailure {
                seed: self.seed,
                detail: format!("leader recovery failed after a power cut: {e}"),
            })?;
        self.leader_matches(history, "the acknowledged history after leader recovery")?;
        // The leader's death also dropped the connection.
        let nodes = self.reopen_follower(false)?;
        for (s, durable) in nodes.leader_durable()?.into_iter().enumerate() {
            let applied = nodes.follower.applied_lsn(s);
            if applied > durable {
                return Err(SimFailure {
                    seed: nodes.seed,
                    detail: format!(
                        "follower shard {s} applied lsn {applied} but the recovered leader \
                         is durable only through {durable}: unflushed bytes were shipped"
                    ),
                });
            }
        }
        Ok(nodes)
    }

    /// The leader dies permanently: cut the wire, promote the follower
    /// under a fenced new term, attach a fresh follower on a fresh disk,
    /// verify no acknowledged statement was lost and the survivors match
    /// the oracle, redirect every client (retries of surviving statements
    /// answer from the dedupe cache; casualties freshly re-apply), catch
    /// the new follower up, and prove the deposed term is fenced.
    fn promote(
        mut self,
        clients: &mut [SimClient],
        history: &mut Vec<String>,
    ) -> Result<NodeSet, SimFailure> {
        use chronicle_types::ChronicleError;

        let seed = self.seed;
        self.cut("leader-death");
        // The deposed leader and its disk are abandoned for good.
        drop(self.leader);
        self.leader = self.follower.promote().map_err(|e| SimFailure {
            seed,
            detail: format!("promotion failed: {e}"),
        })?;
        trace!("TRACE promoted term={}", self.leader.term());
        // A fresh follower attaches to the new lineage on its own disk;
        // it replays everything, the promotion's Term record included.
        let n = (self.report.promotions + 1) as u64;
        self.leader_disk = std::mem::replace(
            &mut self.follower_disk,
            Disk::new(
                seed ^ FS_SEED_SALT ^ FOLLOWER_FS_SALT ^ PROMOTION_FS_SALT.wrapping_mul(n),
                format!("/sim/follower{n}"),
            ),
        );
        self.follower = self
            .follower_disk
            .open_follower(self.shards)
            .map_err(|e| SimFailure {
                seed,
                detail: format!("fresh follower open failed after promotion: {e}"),
            })?;
        self.session = Session::connect(&self.follower);
        let leader = &mut self.leader;

        // Acked statements survive: the promoted leader must cover every
        // acknowledged stamp.
        for c in clients.iter() {
            if c.acked_seq > 0 && leader.session_last_seq(c.session) < Some(c.acked_seq) {
                return Err(SimFailure {
                    seed,
                    detail: format!(
                        "promotion lost an acknowledged statement: session {} was acked through \
                         seq {} but the promoted leader covers only {:?}",
                        c.session,
                        c.acked_seq,
                        leader.session_last_seq(c.session)
                    ),
                });
            }
        }

        // Pending statements that never reached the follower died with the
        // deposed leader: prune them from the history (their retries below
        // re-apply them as fresh statements of the new lineage).
        for c in clients.iter() {
            if let Some((seq, sql)) = &c.pending {
                if leader.session_last_seq(c.session) < Some(*seq) {
                    trace!("TRACE promotion drops session={} seq={}", c.session, seq);
                    history.retain(|s| s != sql);
                }
            }
        }

        // The promoted leader is exactly the surviving lineage, once each.
        self.leader_matches(history, "the surviving lineage after promotion")?;
        let leader = &mut self.leader;

        // Client redirect: every un-acked statement is retried against the
        // new leader with its original stamp. Survivors must be answered
        // from the replicated dedupe cache; casualties freshly apply.
        for c in clients.iter() {
            let Some((seq, sql)) = &c.pending else {
                continue;
            };
            if leader.session_last_seq(c.session) >= Some(*seq) {
                retry_acked(leader, c, seed)?;
                continue;
            }
            leader
                .execute_stamped(sql, c.session, *seq)
                .map_err(|e| SimFailure {
                    seed,
                    detail: format!("post-promotion retry of lost `{sql}` was rejected: {e}"),
                })?;
            if leader.session_last_seq(c.session) != Some(*seq) {
                return Err(SimFailure {
                    seed,
                    detail: format!(
                        "post-promotion retry of lost `{sql}` did not advance session {} to seq \
                         {seq}",
                        c.session
                    ),
                });
            }
            history.push(sql.clone());
        }

        self.catch_up()?;
        if self.follower.db().term() != self.leader.term() {
            return Err(SimFailure {
                seed,
                detail: format!(
                    "caught-up follower replayed term {} but the promoted leader serves term {}",
                    self.follower.db().term(),
                    self.leader.term()
                ),
            });
        }

        // The zombie probe: a stream carrying the deposed term must be
        // refused by the new lineage with a typed fencing error.
        self.report.fencing_probes += 1;
        let stale = self.leader.term() - 1;
        match self.follower.check_leader_term(stale) {
            Err(ChronicleError::Fenced { .. }) => {}
            other => {
                return Err(SimFailure {
                    seed,
                    detail: format!(
                        "a deposed leader's stream (term {stale}) was not fenced by the \
                         promoted lineage (term {}): got {other:?}",
                        self.leader.term()
                    ),
                });
            }
        }
        self.report.promotions += 1;
        Ok(self)
    }

    /// The leader's state must equal a never-crashed oracle replaying
    /// `history` once per statement.
    fn leader_matches(&self, history: &[String], what: &str) -> Result<(), SimFailure> {
        let got = digest_sharded(&self.leader);
        let oracle = digest_sharded(&replay(history, Some(self.shards), self.seed)?);
        if got != oracle {
            return Err(diverged(self.seed, what, &got, &oracle));
        }
        Ok(())
    }

    /// After a follower recovery, every shard must sit on *some prefix* of
    /// the history (shards advance independently, so prefixes may differ
    /// across shards mid-stream).
    fn follower_is_prefix(&self, history: &[String]) -> Result<(), SimFailure> {
        let legal = legal_digests(history, None, Some(self.shards), self.seed)?;
        let l = history.len();
        for i in 0..self.shards {
            let g = digest_single(self.follower.db().shard(i));
            if shard_prefix_match(&g, i, l, &legal).is_none() {
                return Err(SimFailure {
                    seed: self.seed,
                    detail: format!(
                        "follower shard {i} recovered to a state matching no prefix of the \
                         acknowledged history ({l} statements)"
                    ),
                });
            }
        }
        Ok(())
    }

    /// The final check: one uninterrupted catch-up converges the follower
    /// to the leader's full state byte for byte, with zero replication
    /// lag.
    fn converge(mut self) -> Result<NetReport, SimFailure> {
        self.catch_up()?;
        let got = digest_sharded(self.follower.db());
        let want = digest_sharded(&self.leader);
        if got != want {
            return Err(diverged(
                self.seed,
                "the leader's final state after full catch-up",
                &got,
                &want,
            ));
        }
        if self.follower.replication_lag() != Some(0) {
            return Err(SimFailure {
                seed: self.seed,
                detail: format!(
                    "converged follower still reports lag {:?}",
                    self.follower.replication_lag()
                ),
            });
        }
        Ok(self.report)
    }
}

fn apply_shipped(follower: &mut FollowerDb, msg: Message, seed: u64) -> Result<(), SimFailure> {
    let applied = match msg {
        Message::SegStart {
            shard,
            first_lsn,
            term,
        } => follower
            .check_leader_term(term)
            .and_then(|()| follower.begin_segment(shard as usize, first_lsn)),
        Message::SegBytes {
            shard,
            first_lsn: _,
            offset,
            bytes,
        } => follower.ingest(shard as usize, offset, &bytes).map(|_| ()),
        Message::SegSeal { shard, first_lsn } => follower.seal_segment(shard as usize, first_lsn),
        Message::Heartbeat { durable } => {
            for (s, lsn) in durable.into_iter().enumerate() {
                follower.note_leader_durable(s, lsn);
            }
            Ok(())
        }
        other => {
            return Err(SimFailure {
                seed,
                detail: format!("unexpected shipping message {other:?}"),
            })
        }
    };
    applied.map_err(|e| SimFailure {
        seed,
        detail: format!("follower refused the shipped stream: {e}"),
    })
}

/// Issue one fresh stamped statement for `c` on the leader and record it
/// in the history (sn = the stamp's seq, so the SEQ column stays
/// monotone per chronicle). The leader applies it durably (fsync on), but
/// it is *not* acknowledged until the follower covers the stamp.
fn issue(
    nodes: &mut NodeSet,
    c: &mut SimClient,
    history: &mut Vec<String>,
) -> Result<(), SimFailure> {
    c.seq += 1;
    let sql = format!(
        "APPEND INTO c{} VALUES ({}, {})",
        c.session,
        c.seq,
        nodes.rng.below(50)
    );
    nodes
        .leader
        .execute_stamped(&sql, c.session, c.seq)
        .map_err(|e| SimFailure {
            seed: nodes.seed,
            detail: format!("leader rejected a fresh stamped append `{sql}`: {e}"),
        })?;
    history.push(sql.clone());
    c.pending = Some((c.seq, sql));
    trace!("TRACE issue session={} seq={} pending", c.session, c.seq);
    Ok(())
}

/// Replay a retry of a statement the leader already applied — a lost
/// ack, or a redirect of a promotion survivor: re-execute the client's
/// *newest* statement with its original stamp (the dedupe table is
/// bounded to one entry per session, so only the newest stamp is
/// retryable — exactly what a one-in-flight client can ever retry). The
/// cache must answer it from the recorded outcome — state byte-identical
/// before and after. Returns whether a retry ran (a session that never
/// issued has nothing to retry).
fn retry_acked(leader: &mut ShardedDb, c: &SimClient, seed: u64) -> Result<bool, SimFailure> {
    let newest = c.pending.as_ref().or(c.last_acked.as_ref());
    let Some((seq, sql)) = newest else {
        return Ok(false);
    };
    let before = digest_sharded(leader);
    leader
        .execute_stamped(sql, c.session, *seq)
        .map_err(|e| SimFailure {
            seed,
            detail: format!(
                "retry of applied statement `{sql}` (session {}, seq {seq}) was \
                 rejected instead of answered from the dedupe cache: {e}",
                c.session
            ),
        })?;
    if digest_sharded(leader) != before {
        return Err(SimFailure {
            seed,
            detail: format!(
                "retry of applied statement `{sql}` (session {}, seq {seq}) was \
                 applied twice: state changed under a duplicate stamp",
                c.session
            ),
        });
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ScheduleConfig {
        ScheduleConfig {
            ops: 60,
            ..ScheduleConfig::default()
        }
    }

    #[test]
    fn single_seed_runs_clean() {
        let report = run_seed(1, &quick_cfg()).unwrap();
        assert!(report.sql_acked > 0);
        assert!(report.recoveries >= 1, "final hard cut always recovers");
    }

    #[test]
    fn same_seed_same_report() {
        let a = run_seed(77, &quick_cfg());
        let b = run_seed(77, &quick_cfg());
        assert_eq!(a, b, "a run is a pure function of its seed");
    }

    #[test]
    fn sharded_seed_runs_clean() {
        let report = run_seed_sharded(5, 2, &quick_cfg()).unwrap();
        assert!(report.sql_acked > 0);
    }

    #[test]
    fn bit_rot_seed_runs_clean() {
        let report = run_seed_bit_rot(3, &quick_cfg()).unwrap();
        assert!(report.bit_rot_flips > 0, "every cut decays the medium");
        assert!(report.recoveries >= 1);
    }

    #[test]
    fn bit_rot_same_seed_same_report() {
        let a = run_seed_bit_rot(11, &quick_cfg());
        let b = run_seed_bit_rot(11, &quick_cfg());
        assert_eq!(a, b, "rot is part of the deterministic replay");
    }

    #[test]
    fn bit_rot_sharded_seed_runs_clean() {
        let report = run_seed_bit_rot_sharded(7, 2, &quick_cfg()).unwrap();
        assert!(report.bit_rot_flips > 0);
    }

    #[test]
    fn replication_seed_runs_clean() {
        let report = run_replication_seed(1, 1, &quick_cfg()).unwrap();
        assert!(report.acked > 0);
        assert!(report.pump_cycles > 0);
        assert!(report.bytes_shipped > 0);
    }

    #[test]
    fn replication_sharded_seed_runs_clean() {
        let report = run_replication_seed(9, 2, &quick_cfg()).unwrap();
        assert!(report.acked > 0);
        assert_eq!(report.shards, 2);
    }

    #[test]
    fn replication_same_seed_same_report() {
        let a = run_replication_seed(33, 2, &quick_cfg());
        let b = run_replication_seed(33, 2, &quick_cfg());
        assert_eq!(a, b, "shipping faults replay from the seed alone");
    }

    #[test]
    fn replication_seeds_exercise_every_fault() {
        // Across a handful of seeds, each fault class must fire at least
        // once — otherwise the sweep only pretends to cover them.
        let mut cuts = 0;
        let mut fkills = 0;
        let mut lkills = 0;
        for seed in 0..8 {
            let r = run_replication_seed(seed, 2, &quick_cfg()).unwrap();
            cuts += r.connection_cuts;
            fkills += r.follower_kills;
            lkills += r.leader_kills;
        }
        assert!(cuts > 0, "no connection cuts across seeds");
        assert!(fkills > 0, "no follower kills across seeds");
        assert!(lkills > 0, "no leader kills across seeds");
    }

    #[test]
    fn sharded_seeds_apply_group_moves() {
        // The schedule generator emits MoveGroup at ~2% of body rolls, so
        // a dozen seeds must acknowledge at least one move — otherwise the
        // placement machinery is silently unexercised.
        let mut moves = 0;
        for seed in 0..12 {
            moves += run_seed_sharded(seed, 3, &quick_cfg()).unwrap().moves;
        }
        assert!(moves > 0, "no group move acknowledged across seeds");
    }

    #[test]
    fn single_topology_rejects_moves() {
        for seed in 0..6 {
            let r = run_seed(seed, &quick_cfg()).unwrap();
            assert_eq!(r.moves, 0, "single topology must not acknowledge moves");
        }
    }

    #[test]
    fn failover_seed_runs_clean() {
        let report = run_failover_seed(1, 2, &quick_cfg()).unwrap();
        assert!(report.acked > 0);
        assert!(report.promotions >= 1, "every run proves a promotion");
        assert_eq!(report.fencing_probes, report.promotions);
        assert!(report.dedupe_retries >= 1, "every run proves the cache");
    }

    #[test]
    fn failover_single_shard_runs_clean() {
        let report = run_failover_seed(2, 1, &quick_cfg()).unwrap();
        assert!(report.acked > 0);
        assert!(report.promotions >= 1);
    }

    #[test]
    fn failover_same_seed_same_report() {
        let a = run_failover_seed(21, 2, &quick_cfg());
        let b = run_failover_seed(21, 2, &quick_cfg());
        assert_eq!(a, b, "failover faults replay from the seed alone");
    }

    #[test]
    fn failover_seeds_exercise_every_fault() {
        let mut partitions = 0;
        let mut dups = 0;
        let mut cuts = 0;
        let mut fkills = 0;
        let mut promotions = 0;
        for seed in 0..8 {
            let r = run_failover_seed(seed, 2, &quick_cfg()).unwrap();
            partitions += r.partitions;
            dups += r.heartbeat_duplicates;
            cuts += r.connection_cuts;
            fkills += r.follower_kills;
            promotions += r.promotions;
        }
        assert!(partitions > 0, "no partitions across seeds");
        assert!(dups > 0, "no duplicated heartbeats across seeds");
        assert!(cuts > 0, "no connection cuts across seeds");
        assert!(fkills > 0, "no follower kills across seeds");
        assert!(promotions >= 8, "every seed promotes at least once");
    }

    #[test]
    fn failure_prints_reproducing_seed() {
        let f = SimFailure {
            seed: 424242,
            detail: "x".into(),
        };
        assert!(f.to_string().contains("424242"));
    }
}
