//! The five workloads: set-up, the closed-loop timed phases, and the check
//! of every view against the reference fold.

use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use chronicle_db::pipeline::{ShardedPipeline, ShardedPipelineHandle};
use chronicle_db::{
    shard_of_group, ChronicleDb, DbStats, DurabilityOptions, ExecOutcome, ShardedDb,
};
use chronicle_net::{Client, RemoteOutcome, Server};
use chronicle_types::{ChronicleError, Chronon, Result, Tuple};

use crate::gen::{self, Oracle, Ring};
use crate::measure::{median, Samples, Windows};

/// Which public entry point the load goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `Client::sql` → `Server` → `ShardedPipeline`, `fsync: true`.
    Wire,
    /// `ShardedPipelineHandle::append`, `fsync: true`.
    Pipe,
    /// `ChronicleDb::new()`: no WAL, no pipeline, no network.
    Embed,
}

pub struct Spec {
    pub name: &'static str,
    pub entry: Entry,
    /// Rows per append.
    pub batch: usize,
    /// Alternate every append with a key lookup (otherwise lookups get the
    /// last fifth of the run to themselves).
    pub mixed: bool,
    /// Rows in each producer's input ring.
    ring_rows: usize,
    /// Requests each stair of the traced run replays, per second of
    /// `--seconds`: sized so the whole staircase takes a few seconds.
    pub stair_ops_per_s: f64,
}

/// Names are permanent: every later claim is stated against them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "wire-row-durable",
        entry: Entry::Wire,
        batch: 1,
        mixed: false,
        ring_rows: 65_536,
        stair_ops_per_s: 150.0,
    },
    Spec {
        name: "wire-mixed-durable",
        entry: Entry::Wire,
        batch: 1,
        mixed: true,
        ring_rows: 65_536,
        stair_ops_per_s: 10.0,
    },
    Spec {
        name: "pipe-batch-durable",
        entry: Entry::Pipe,
        batch: 256,
        mixed: false,
        ring_rows: 262_144,
        stair_ops_per_s: 30.0,
    },
    Spec {
        name: "embed-mem-maintain-b1",
        entry: Entry::Embed,
        batch: 1,
        mixed: false,
        ring_rows: 262_144,
        stair_ops_per_s: 2_000.0,
    },
    Spec {
        name: "embed-mem-maintain-b256",
        entry: Entry::Embed,
        batch: 256,
        mixed: false,
        ring_rows: 262_144,
        stair_ops_per_s: 100.0,
    },
];

/// Sharded engines are 2-shard with one chronicle group per shard, and one
/// closed-loop producer per group: `nproc` = 2 on the reference host.
pub const SHARDS: usize = 2;
/// Per-shard pipeline channel capacity (and group-commit window).
const PIPE_CAPACITY: usize = 64;
/// `pipe-batch-durable` checkpoints after this many WAL records per shard,
/// so several checkpoint cycles complete inside the timed phase and the WAL
/// stays bounded.
const PIPE_AUTO_CHECKPOINT: u64 = 1_500;
/// Share of `--seconds` spent appending when lookups are not interleaved.
const APPEND_SHARE: f64 = 0.8;

pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    /// 1/200-size run for `cargo test`: tiny key space and rings, one
    /// set-up.
    pub smoke: bool,
    /// Where durable engines live; removed when the run ends.
    pub out: PathBuf,
}

impl Params {
    pub fn accounts(&self) -> u64 {
        if self.smoke {
            1_024
        } else {
            gen::ACCOUNTS
        }
    }

    fn ring_rows(&self, spec: &Spec) -> usize {
        if self.smoke {
            4_096
        } else {
            spec.ring_rows
        }
    }

    /// How long the fsync-rate calibration runs.
    pub fn calibrate_for(&self) -> Duration {
        Duration::from_millis(if self.smoke { 20 } else { 1_000 })
    }

    /// Set-ups per run; `setup_s` is their median.
    fn setup_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            3
        }
    }
}

pub fn durable_opts(auto_checkpoint_records: Option<u64>) -> DurabilityOptions {
    DurabilityOptions {
        fsync: true,
        auto_checkpoint_records,
        ..DurabilityOptions::default()
    }
}

/// Group names that the engine's own hash places on shard 0 and shard 1.
pub fn shard_groups() -> Vec<String> {
    (0..SHARDS)
        .map(|s| {
            (0..)
                .map(|i| format!("grp{i}"))
                .find(|g| shard_of_group(g, SHARDS) == s)
                .expect("some name hashes to every shard")
        })
        .collect()
}

/// A durable 2-shard engine behind its pipeline, with the common schema
/// and the relation loaded.
pub struct Durable {
    pub dir: PathBuf,
    pub pipeline: ShardedPipeline,
}

impl Durable {
    pub fn open(dir: &Path, plans: &[i64], auto_checkpoint: Option<u64>) -> Result<Durable> {
        let mut db = ShardedDb::open_with(dir, SHARDS, durable_opts(None))?;
        db.execute(gen::RELATION_DDL)?;
        for (part, group) in shard_groups().iter().enumerate() {
            for ddl in gen::part_ddl(part, group) {
                db.execute(&ddl)?;
            }
        }
        // The relation rides the pipeline so each 1 024-row statement
        // shares one group-commit fsync per shard.
        let mut pipeline = ShardedPipeline::start(db, PIPE_CAPACITY);
        let handle = pipeline.handle();
        for sql in gen::relation_inserts(plans, 1_024) {
            handle.execute(&sql)?;
        }
        let preload = gen::preload(plans.len() as u64);
        for part in 0..SHARDS {
            handle.append(&gen::chronicle_name(part), Chronon(0), preload.clone())?;
        }
        if auto_checkpoint.is_some() {
            // Checkpoint cadence is fixed at open and counts the relation
            // load's records too: publish the loaded state, then reopen
            // with the cadence the timed phase wants.
            let mut db = pipeline.shutdown();
            db.checkpoint()?;
            drop(db);
            let db = ShardedDb::open_with(dir, SHARDS, durable_opts(auto_checkpoint))?;
            pipeline = ShardedPipeline::start(db, PIPE_CAPACITY);
        }
        Ok(Durable {
            dir: dir.to_path_buf(),
            pipeline,
        })
    }
}

/// A single (unsharded) engine with part 0 of the common schema, the
/// relation and the preload: in memory, or durable in `dir` with or without
/// fsync (stairs S2 and S3 of the traced run).
pub fn single_engine(dir: Option<(&Path, bool)>, plans: &[i64]) -> Result<ChronicleDb> {
    let mut db = match dir {
        None => ChronicleDb::new(),
        Some((dir, fsync)) => ChronicleDb::open_with(
            dir,
            DurabilityOptions {
                fsync,
                ..durable_opts(None)
            },
        )?,
    };
    db.execute(gen::RELATION_DDL)?;
    for ddl in gen::part_ddl(0, "grp") {
        db.execute(&ddl)?;
    }
    // One WAL flush for the whole load (a no-op in memory).
    db.set_wal_buffered(true);
    for sql in gen::relation_inserts(plans, 1_024) {
        db.execute(&sql)?;
    }
    db.append(
        &gen::chronicle_name(0),
        Chronon(0),
        &gen::preload(plans.len() as u64),
    )?;
    db.wal_flush()?;
    db.set_wal_buffered(false);
    Ok(db)
}

/// One producer's way into the engine.
pub enum Port<'a> {
    Wire(Client),
    Pipe(ShardedPipelineHandle),
    Embed(&'a mut ChronicleDb),
}

impl Port<'_> {
    /// Append batch `op` of `ring` to part `part` and wait for the ack.
    /// Wire workloads say it in SQL at every entry point (so the traced
    /// staircase sends the same statement down every stair); the others
    /// hand rows to the append API.
    pub fn append(&mut self, spec: &Spec, part: usize, ring: &Ring, op: u64) -> Result<()> {
        let at = Chronon(op as i64 + 1);
        let name = gen::chronicle_name(part);
        let sql = || ring.append_sql(part, op);
        let appended = |out: ExecOutcome| match out {
            ExecOutcome::Appended(_) => Ok(()),
            other => Err(unexpected(format!("{other:?}"))),
        };
        match (self, spec.entry == Entry::Wire) {
            (Port::Wire(c), _) => match c.sql(&sql())? {
                RemoteOutcome::Appended { .. } => Ok(()),
                other => Err(unexpected(format!("{other:?}"))),
            },
            (Port::Pipe(h), true) => appended(h.execute(&sql())?),
            (Port::Pipe(h), false) => h.append(&name, at, ring.batch(op).clone()).map(drop),
            (Port::Embed(db), true) => appended(db.execute(&sql())?),
            (Port::Embed(db), false) => db.append(&name, at, ring.batch(op)).map(drop),
        }
    }

    /// `SELECT * FROM v_acct<part> WHERE acct = k`: the paper's summary
    /// query, through the same entry point as the appends.
    pub fn lookup(&mut self, part: usize, acct: i64) -> Result<()> {
        let sql = gen::lookup_sql(part, acct);
        let rows = match self {
            Port::Wire(c) => match c.sql(&sql)? {
                RemoteOutcome::Rows(rows) => rows,
                other => return Err(unexpected(format!("{other:?}"))),
            },
            Port::Pipe(h) => exec_rows(h.execute(&sql)?)?,
            Port::Embed(db) => exec_rows(db.execute(&sql)?)?,
        };
        match rows.as_slice() {
            [row] if row.get(0).as_int() == Some(acct) => Ok(()),
            _ => Err(unexpected(format!("{} rows for key {acct}", rows.len()))),
        }
    }
}

fn exec_rows(out: ExecOutcome) -> Result<Vec<Tuple>> {
    match out {
        ExecOutcome::Rows(rows) => Ok(rows),
        other => Err(unexpected(format!("{other:?}"))),
    }
}

fn unexpected(what: String) -> ChronicleError {
    ChronicleError::Internal(format!("benchmark: unexpected reply {what}"))
}

/// What the producers did in one timed phase.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub acks: Samples,
    pub queries: Samples,
    pub windows: Windows,
    pub append_elapsed: Duration,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.acks.absorb(other.acks);
        self.queries.absorb(other.queries);
        self.windows.absorb(&other.windows);
        self.append_elapsed = self.append_elapsed.max(other.append_elapsed);
    }

    pub fn fail(&mut self, what: &str, e: &ChronicleError) {
        if self.failed == 0 {
            eprintln!("benchmark: first failed {what}: {e}");
        }
        self.failed += 1;
    }
}

/// How `--seconds` splits into an append phase and a lookup phase.
pub fn phases(spec: &Spec, seconds: f64) -> (Duration, Duration) {
    if spec.mixed {
        (Duration::from_secs_f64(seconds), Duration::ZERO)
    } else {
        let a = Duration::from_secs_f64(seconds * APPEND_SHARE);
        (a, Duration::from_secs_f64(seconds) - a)
    }
}

/// The closed loop of one producer: each call waits for its ack before the
/// next is issued (the ATM/switch model of §1). One clock read per
/// operation: the end of one is the start of the next. `done` is the
/// producer's position in its ring, advanced by every acknowledged append.
fn drive(
    port: &mut Port<'_>,
    spec: &Spec,
    part: usize,
    ring: &Ring,
    keys: &[i64],
    done: &mut u64,
    (append_for, query_for): (Duration, Duration),
) -> Tally {
    let mut t = Tally {
        acks: Samples::with_capacity(1 << 16),
        queries: Samples::with_capacity(1 << 12),
        ..Tally::default()
    };
    let mut key = keys.iter().cycle();
    let mut lookup = |port: &mut Port<'_>, t: &mut Tally, since: Instant| {
        t.attempted += 1;
        let ok = port.lookup(part, *key.next().expect("keys cycle"));
        let now = Instant::now();
        match ok {
            Ok(()) => t.queries.push(now - since),
            Err(e) => t.fail("lookup", &e),
        }
        now
    };
    let t0 = Instant::now();
    let mut last = t0;
    while last - t0 < append_for {
        t.attempted += 1;
        let ok = port.append(spec, part, ring, *done);
        let now = Instant::now();
        match ok {
            Ok(()) => {
                *done += 1;
                t.acks.push(now - last);
                t.windows.record(now - t0, spec.batch as u64);
            }
            Err(e) => t.fail("append", &e),
        }
        last = if spec.mixed {
            lookup(port, &mut t, now)
        } else {
            now
        };
    }
    t.append_elapsed = last - t0;
    let q0 = last;
    while last - q0 < query_for {
        last = lookup(port, &mut t, last);
    }
    t
}

/// The seeded inputs of a run and how far each producer got through them:
/// all the reference fold needs.
pub struct Inputs {
    pub plans: Vec<i64>,
    pub rings: Vec<Ring>,
    pub keys: Vec<Vec<i64>>,
    /// Batches of `rings[part]` acknowledged so far, per part.
    pub done: Vec<u64>,
}

impl Inputs {
    /// The reference fold of everything acknowledged so far.
    pub fn reference(&self) -> Reference {
        Reference(
            (0..self.rings.len())
                .map(|part| Oracle::of(&self.rings[part], self.done[part], &self.plans))
                .collect(),
        )
    }
}

/// What every view of every part must hold.
pub struct Reference(Vec<Oracle>);

impl Reference {
    /// One line per view that differs from the fold.
    pub fn mismatches(&self, query: impl Fn(&str) -> Result<Vec<Tuple>>) -> Vec<String> {
        self.0
            .iter()
            .enumerate()
            .flat_map(|(part, oracle)| oracle.mismatches(part, &query))
            .collect()
    }

    /// Views one [`Reference::mismatches`] call compares.
    pub fn checks(&self) -> u64 {
        (self.0.len() * gen::VIEWS.len()) as u64
    }
}

/// Everything a run needs, built by one set-up.
pub struct Rig {
    pub inputs: Inputs,
    pub engine: Engine,
}

// One value per run: the size difference between variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Engine {
    Embed(ChronicleDb),
    Durable {
        durable: Durable,
        server: Option<Server>,
        /// One per part: `Port::Wire` or `Port::Pipe`.
        ports: Vec<Port<'static>>,
    },
}

/// A rig with every thread stopped.
#[allow(clippy::large_enum_variant)]
pub enum Stopped {
    Embed(ChronicleDb),
    Durable { db: ShardedDb, dir: PathBuf },
}

impl Rig {
    pub fn set_up(spec: &Spec, p: &Params, dir: &Path) -> Result<Rig> {
        let plans = gen::plans(p.seed, p.accounts());
        let parts = if spec.entry == Entry::Embed {
            1
        } else {
            SHARDS
        };
        let engine = match spec.entry {
            Entry::Embed => Engine::Embed(single_engine(None, &plans)?),
            Entry::Pipe => {
                let durable = Durable::open(dir, &plans, Some(PIPE_AUTO_CHECKPOINT))?;
                let ports = (0..parts)
                    .map(|_| Port::Pipe(durable.pipeline.handle()))
                    .collect();
                Engine::Durable {
                    durable,
                    server: None,
                    ports,
                }
            }
            Entry::Wire => {
                let durable = Durable::open(dir, &plans, None)?;
                let server = Server::start(durable.pipeline.handle(), "127.0.0.1:0")?;
                let addr = server.addr().to_string();
                let ports = (0..parts)
                    .map(|_| Client::connect(&addr).map(Port::Wire))
                    .collect::<Result<_>>()?;
                Engine::Durable {
                    durable,
                    server: Some(server),
                    ports,
                }
            }
        };
        let rings = (0..parts)
            .map(|part| Ring::generate(p.seed, part, p.accounts(), p.ring_rows(spec), spec.batch))
            .collect();
        let keys = (0..parts)
            .map(|part| gen::lookup_keys(p.seed, part, p.accounts(), 4_096))
            .collect();
        Ok(Rig {
            inputs: Inputs {
                plans,
                rings,
                keys,
                done: vec![0; parts],
            },
            engine,
        })
    }

    /// Run the closed loops — one producer per part, all started together —
    /// for the given phase lengths.
    pub fn timed(&mut self, spec: &Spec, phases: (Duration, Duration)) -> Tally {
        let Inputs {
            rings, keys, done, ..
        } = &mut self.inputs;
        match &mut self.engine {
            Engine::Embed(db) => drive(
                &mut Port::Embed(db),
                spec,
                0,
                &rings[0],
                &keys[0],
                &mut done[0],
                phases,
            ),
            Engine::Durable { ports, .. } => {
                let barrier = Barrier::new(ports.len());
                let mut all = Tally::default();
                std::thread::scope(|s| {
                    let workers: Vec<_> = ports
                        .iter_mut()
                        .zip(done.iter_mut())
                        .enumerate()
                        .map(|(part, (port, done))| {
                            let (ring, keys, barrier) = (&rings[part], &keys[part], &barrier);
                            s.spawn(move || {
                                barrier.wait();
                                drive(port, spec, part, ring, keys, done, phases)
                            })
                        })
                        .collect();
                    for w in workers {
                        all.absorb(w.join().expect("producer thread panicked"));
                    }
                });
                all
            }
        }
    }

    /// Engine counters now (summed over shards).
    pub fn stats(&self) -> Result<DbStats> {
        match &self.engine {
            Engine::Embed(db) => Ok(db.stats().clone()),
            Engine::Durable { durable, .. } => durable.pipeline.handle().stats(),
        }
    }

    /// Stop every thread the rig started and hand back the database.
    pub fn stop(self) -> (Stopped, Inputs) {
        let stopped = match self.engine {
            Engine::Embed(db) => Stopped::Embed(db),
            Engine::Durable {
                durable,
                server,
                ports,
            } => {
                for port in ports {
                    if let Port::Wire(c) = port {
                        c.goodbye();
                    }
                }
                if let Some(s) = server {
                    s.stop();
                }
                Stopped::Durable {
                    db: durable.pipeline.shutdown(),
                    dir: durable.dir,
                }
            }
        };
        (stopped, self.inputs)
    }

    /// Stop and delete a rig that is not going to be measured.
    fn discard(self) {
        if let (Stopped::Durable { db, dir }, _) = self.stop() {
            drop(db);
            remove_dir(&dir);
        }
    }
}

/// The outcome of one untraced run.
pub struct Outcome {
    pub setup_s: f64,
    pub setups: usize,
    pub tally: Tally,
    /// Engine counters before and after the timed phases.
    pub stats: [DbStats; 2],
    /// One line per view that differed from the reference fold.
    pub mismatches: Vec<String>,
    /// Views compared (each counts as one attempted operation).
    pub checks: u64,
}

/// Set up (several times; the median is `setup_s`), run the timed phases,
/// and check the views — live, and for durable engines again after a
/// restart from disk.
pub fn run(spec: &Spec, p: &Params) -> Result<Outcome> {
    let mut setups = Vec::new();
    let mut rig: Option<Rig> = None;
    for rep in 0..p.setup_reps() {
        if let Some(old) = rig.take() {
            old.discard();
        }
        let dir = p.out.join(format!("{}-{rep}", spec.name));
        let t0 = Instant::now();
        rig = Some(Rig::set_up(spec, p, &dir)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let before = rig.stats()?;
    let tally = rig.timed(spec, phases(spec, p.seconds));
    let after = rig.stats()?;
    let (stopped, inputs) = rig.stop();
    let reference = inputs.reference();
    let mut checks = reference.checks();
    let mismatches = match stopped {
        Stopped::Embed(db) => reference.mismatches(|v| db.query_view(v)),
        Stopped::Durable { db, dir } => {
            let mut bad = reference.mismatches(|v| db.query_view(v));
            // Every acknowledged append must be readable after a restart
            // from what reached the disk.
            drop(db);
            let db = ShardedDb::open_with(&dir, SHARDS, durable_opts(None))?;
            for m in reference.mismatches(|v| db.query_view(v)) {
                bad.push(format!("after reopen: {m}"));
            }
            checks += reference.checks();
            drop(db);
            remove_dir(&dir);
            bad
        }
    };
    Ok(Outcome {
        setup_s: median(&mut setups),
        setups: p.setup_reps(),
        tally,
        stats: [before, after],
        mismatches,
        checks,
    })
}

pub fn remove_dir(dir: &Path) {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => eprintln!("benchmark: removing {}: {e}", dir.display()),
    }
}
