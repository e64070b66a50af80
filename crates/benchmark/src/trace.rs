//! The traced run (`--trace 1`): per-layer numbers, measured from outside.
//!
//! Nothing inside the engine is instrumented (that is a later issue), so
//! layers are separated two ways:
//!
//! * a **staircase**: the same seeded operations are replayed
//!   single-threaded up progressively longer public entry points, every
//!   call wrapped in a span. A layer's self time is the difference of
//!   adjacent stair medians, so the breakdown sums to the top stair by
//!   construction;
//! * **counters** read from public `stats()` around a short run of the
//!   workload's real concurrent load, plus direct probes of the public
//!   functions of `store`, `algebra` and `durability` on the same input.
//!
//! Counts that must repeat exactly for a seed ([`EXACT`]) come only from
//! fixed-count single-threaded phases.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use chronicle_algebra::{kernels, DeltaBatch, WorkCounter};
use chronicle_db::{ChronicleDb, DbStats, ShardedDb};
use chronicle_durability::WalRecord;
use chronicle_store::ChunkArena;
use chronicle_types::{Chronon, Result, SeqNo, Tuple, Value};

use crate::env;
use crate::gen::{self, Ring};
use crate::measure::{median, time_ns_per, Metric, Report, Samples};
use crate::workloads::{
    durable_opts, phases, remove_dir, single_engine, Engine, Entry, Inputs, Params, Port, Rig,
    Spec, Stopped, SHARDS,
};

/// Layer metrics that are pure counts over seeded, fixed-size,
/// single-threaded input: byte-identical across runs of one seed
/// (`--check-agreement` asserts it).
pub const EXACT: [&str; 3] = [
    "views.work_units_per_tuple",
    "durability.wal_bytes_per_tuple",
    "durability.replayed_records",
];

/// Share of `--seconds` the real concurrent load runs for, to read the
/// counters only it can produce (flush coalescing, overload refusals).
const LOAD_SHARE: f64 = 0.4;
/// Batches appended after the explicit checkpoint, per shard: the WAL tail
/// every timed reopen replays.
const TAIL_BATCHES: u64 = 40;
const REOPENS: usize = 3;

/// One wrapped call: which stair, which request, when.
struct Span {
    stair: usize,
    request: u64,
    start_ns: u64,
    end_ns: u64,
}

/// One stair: a public entry point, and the layer its step up from the
/// stair below is charged to.
struct Stair {
    name: &'static str,
    layer: &'static str,
    p50_us: f64,
}

/// What the stairs replay: the workload's own operation over part 0's
/// seeded ring.
#[derive(Clone, Copy)]
struct Requests<'a> {
    spec: &'a Spec,
    ring: &'a Ring,
    keys: &'a [i64],
}

struct Climb {
    /// Requests per stair.
    n: u64,
    epoch: Instant,
    spans: Vec<Span>,
    stairs: Vec<Stair>,
    failed: u64,
}

impl Climb {
    /// Replay requests `first..first + n` through `call`, one span each.
    fn stair(
        &mut self,
        name: &'static str,
        layer: &'static str,
        first: u64,
        mut call: impl FnMut(u64) -> Result<()>,
    ) {
        let idx = self.stairs.len();
        let mut lat = Samples::with_capacity(self.n as usize);
        for r in first..first + self.n {
            let t0 = Instant::now();
            let ok = call(r);
            let t1 = Instant::now();
            match ok {
                Ok(()) => lat.push(t1 - t0),
                Err(e) => {
                    if self.failed == 0 {
                        eprintln!("benchmark: first failed call on stair {name}: {e}");
                    }
                    self.failed += 1;
                }
            }
            self.spans.push(Span {
                stair: idx,
                request: r - first,
                start_ns: (t0 - self.epoch).as_nanos() as u64,
                end_ns: (t1 - self.epoch).as_nanos() as u64,
            });
        }
        self.stairs.push(Stair {
            name,
            layer,
            p50_us: lat.p50_us(),
        });
    }

    /// One request through a port: the workload's own operation.
    fn through(
        &mut self,
        Requests { spec, ring, keys }: Requests<'_>,
        name: &'static str,
        layer: &'static str,
        port: &mut Port<'_>,
        first: u64,
    ) {
        self.stair(name, layer, first, |r| {
            port.append(spec, 0, ring, r)?;
            if spec.mixed {
                port.lookup(0, keys[r as usize % keys.len()])?;
            }
            Ok(())
        });
    }

    /// Self time charged to `layer`: its stair's median minus the stair
    /// below's. Zero for a layer the workload has no stair for.
    fn self_us(&self, layer: &str) -> f64 {
        self.stairs
            .iter()
            .enumerate()
            .find(|(_, s)| s.layer == layer)
            .map_or(0.0, |(i, s)| {
                s.p50_us
                    - if i == 0 {
                        0.0
                    } else {
                        self.stairs[i - 1].p50_us
                    }
            })
    }

    fn top_us(&self) -> f64 {
        self.stairs.last().map_or(0.0, |s| s.p50_us)
    }

    /// Spans as JSON: `parent` is the same request's span one stair up —
    /// the longer entry point contains the shorter one's work.
    fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.stair + 1 < self.stairs.len() {
                ((s.stair as u64 + 1) * self.n + s.request).to_string()
            } else {
                "null".into()
            };
            writeln!(
                f,
                "{{\"id\": {i}, \"name\": \"{}\", \"request\": {}, \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                self.stairs[s.stair].name,
                s.request,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(f, "]")?;
        f.flush()
    }
}

/// `after − before` of the counters the layer metrics use.
fn delta(before: &DbStats, after: &DbStats) -> DbStats {
    let mut d = DbStats::default();
    d.tuples_appended = after.tuples_appended - before.tuples_appended;
    d.maintenance_nanos = after.maintenance_nanos - before.maintenance_nanos;
    d.views_maintained = after.views_maintained - before.views_maintained;
    d.skipped_by_guard = after.skipped_by_guard - before.skipped_by_guard;
    d.vectorized_views = after.vectorized_views - before.vectorized_views;
    d.wal_bytes = after.wal_bytes - before.wal_bytes;
    d.wal_flushes = after.wal_flushes - before.wal_flushes;
    d.checkpoints = after.checkpoints - before.checkpoints;
    d.session_replays = after.session_replays - before.session_replays;
    d.overload_rejections = after.overload_rejections - before.overload_rejections;
    d.work = WorkCounter {
        tuples_out: after.work.tuples_out - before.work.tuples_out,
        tuples_in: after.work.tuples_in - before.work.tuples_in,
        index_probes: after.work.index_probes - before.work.index_probes,
        rel_tuples_scanned: after.work.rel_tuples_scanned - before.work.rel_tuples_scanned,
    };
    d
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Ring batches as the engine sees them after admission: tuples with the
/// sequencing attribute in front.
fn admitted(ring: &Ring, batches: usize) -> Vec<Vec<Tuple>> {
    ring.batches
        .iter()
        .take(batches)
        .enumerate()
        .map(|(i, b)| {
            b.iter()
                .map(|r| {
                    let mut v = Vec::with_capacity(r.len() + 1);
                    v.push(Value::Seq(SeqNo(i as u64 + 1)));
                    v.extend(r.iter().cloned());
                    Tuple::new(v)
                })
                .collect()
        })
        .collect()
}

/// Direct probes of `store`, `algebra` and `durability` public functions
/// over the ring's first batches: (transpose, kernels, WAL encode) in
/// ns/tuple, 0 where the workload bypasses the layer — the engine uses the
/// interpreter, not chunks and kernels, at batch 1, and the in-memory
/// workloads log nothing. `db` supplies the compiled view expressions.
fn probes(spec: &Spec, ring: &Ring, db: &ChronicleDb) -> Result<(f64, f64, f64)> {
    let tuples_wanted = 65_536;
    let batches = admitted(ring, (tuples_wanted / spec.batch).min(ring.batches.len()));
    let tuples: usize = batches.iter().map(Vec::len).sum();

    let (mut transpose, mut kernel) = (0.0, 0.0);
    if spec.batch > 1 {
        let mut arena = ChunkArena::new();
        transpose = time_ns_per(5, tuples, || {
            for b in &batches {
                let chunk = arena.build(std::hint::black_box(b));
                arena.recycle(std::hint::black_box(chunk));
            }
        });
        let cid = db.catalog().chronicle_id(&gen::chronicle_name(0))?;
        let plans: Vec<_> = gen::VIEWS
            .iter()
            .filter_map(|v| db.maintainer().expr_of(&gen::view_name(v, 0)).ok())
            .filter_map(kernels::plan)
            .collect();
        let deltas: Vec<_> = batches
            .iter()
            .enumerate()
            .map(|(i, b)| {
                let batch = DeltaBatch {
                    chronicle: cid,
                    seq: SeqNo(i as u64 + 1),
                    tuples: b.clone(),
                };
                (batch, arena.build(b))
            })
            .collect();
        let mut work = WorkCounter::default();
        kernel = time_ns_per(5, tuples, || {
            for (batch, chunk) in &deltas {
                for plan in &plans {
                    std::hint::black_box(kernels::eval(plan, batch, chunk, &mut work).is_ok());
                }
            }
        });
    }

    let mut encode = 0.0;
    if spec.entry != Entry::Embed {
        let records: Vec<WalRecord> = batches
            .into_iter()
            .enumerate()
            .map(|(i, tuples)| WalRecord::Append {
                chronicle: gen::chronicle_name(0),
                seq: SeqNo(i as u64 + 1),
                at: Chronon(i as i64 + 1),
                tuples,
            })
            .collect();
        encode = time_ns_per(5, tuples, || {
            for r in &records {
                std::hint::black_box(r.encode());
            }
        });
    }
    Ok((transpose, kernel, encode))
}

/// Checkpoint, tail and reopen timings on a stopped durable engine (all
/// zero for an engine that has nothing on disk).
#[derive(Default)]
struct Recovery {
    checkpoint_ms: f64,
    checkpoint_bytes: u64,
    recovery_ms: f64,
    replayed_records: u64,
    mismatches: Vec<String>,
    /// Views compared after the last reopen.
    checks: u64,
}

fn recovery(mut db: ShardedDb, dir: &Path, inputs: &mut Inputs) -> Result<Recovery> {
    let t0 = Instant::now();
    db.checkpoint()?;
    let checkpoint_ms = t0.elapsed().as_secs_f64() * 1e3;
    for part in 0..SHARDS {
        for _ in 0..TAIL_BATCHES {
            let op = inputs.done[part];
            db.append(
                &gen::chronicle_name(part),
                Chronon(op as i64 + 1),
                inputs.rings[part].batch(op),
            )?;
            inputs.done[part] += 1;
        }
    }
    drop(db);
    let checkpoint_bytes = files_named(dir, ".ckpt")?;
    let reference = inputs.reference();
    let mut times = Vec::new();
    let mut replayed_records = 0;
    let mut mismatches = Vec::new();
    for _ in 0..REOPENS {
        let t0 = Instant::now();
        let db = ShardedDb::open_with(dir, SHARDS, durable_opts(None))?;
        times.push(t0.elapsed().as_secs_f64() * 1e3);
        replayed_records = db.stats().recovery_replayed_records;
        mismatches = reference.mismatches(|v| db.query_view(v));
    }
    Ok(Recovery {
        checkpoint_ms,
        checkpoint_bytes,
        recovery_ms: median(&mut times),
        replayed_records,
        mismatches,
        checks: reference.checks(),
    })
}

/// Total size of the files under `dir` whose name contains `what`.
fn files_named(dir: &Path, what: &str) -> Result<u64> {
    fn walk(dir: &Path, what: &str) -> std::io::Result<u64> {
        let mut total = 0;
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let meta = entry.metadata()?;
            if meta.is_dir() {
                total += walk(&entry.path(), what)?;
            } else if entry.file_name().to_string_lossy().contains(what) {
                total += meta.len();
            }
        }
        Ok(total)
    }
    walk(dir, what).map_err(|e| chronicle_types::ChronicleError::Durability {
        detail: format!("sizing {what} files under {}: {e}", dir.display()),
    })
}

pub fn run(spec: &Spec, p: &Params) -> Result<Report> {
    let dir = p.out.join(format!("{}-traced", spec.name));
    let mut rig = Rig::set_up(spec, p, &dir.join("rig"))?;

    // The real load, untraced, for the counters only concurrency produces
    // and for the end-to-end median the staircase is compared with.
    let before = rig.stats()?;
    let mut load_tally = rig.timed(spec, phases(spec, p.seconds * LOAD_SHARE));
    let d = delta(&before, &rig.stats()?);

    // The staircase: fresh single engines replay the ring's first `n`
    // requests up to S3; the stairs above run on the rig, whose part 0
    // carries on through its ring from where the load phase stopped.
    let Rig { inputs, engine } = &mut rig;
    let (ring, keys) = (&inputs.rings[0], &inputs.keys[0]);
    let requests = Requests { spec, ring, keys };
    let n = ((p.seconds * spec.stair_ops_per_s) as u64).max(20);
    let mut climb = Climb {
        n,
        epoch: Instant::now(),
        spans: Vec::new(),
        stairs: Vec::new(),
        failed: 0,
    };
    if spec.entry == Entry::Wire {
        climb.stair("S0 sql::parse", "sql.parse_us", 0, |r| {
            chronicle_sql::parse(&ring.append_sql(0, r))?;
            if spec.mixed {
                chronicle_sql::parse(&gen::lookup_sql(0, keys[r as usize % keys.len()]))?;
            }
            Ok(())
        });
    }
    let mut mem = single_engine(None, &inputs.plans)?;
    let mem_before = mem.stats().clone();
    climb.through(
        requests,
        "S1 ChronicleDb::new",
        "views.self_us",
        &mut Port::Embed(&mut mem),
        0,
    );
    let mem_d = delta(&mem_before, mem.stats());
    let mut wal_d = DbStats::default();
    if let Engine::Durable { durable, ports, .. } = engine {
        let mut db = single_engine(Some((&dir.join("s2"), false)), &inputs.plans)?;
        let wal_before = db.stats().clone();
        climb.through(
            requests,
            "S2 open_with(fsync: false)",
            "durability.write_us",
            &mut Port::Embed(&mut db),
            0,
        );
        wal_d = delta(&wal_before, db.stats());
        drop(db);
        let mut db = single_engine(Some((&dir.join("s3"), true)), &inputs.plans)?;
        climb.through(
            requests,
            "S3 open_with(fsync: true)",
            "durability.fsync_us",
            &mut Port::Embed(&mut db),
            0,
        );
        drop(db);
        climb.through(
            requests,
            "S4 ShardedPipelineHandle",
            "core.hop_us",
            &mut Port::Pipe(durable.pipeline.handle()),
            inputs.done[0],
        );
        inputs.done[0] += n;
        if spec.entry == Entry::Wire {
            climb.through(
                requests,
                "S5 Client::sql",
                "net.rtt_us",
                &mut ports[0],
                inputs.done[0],
            );
            inputs.done[0] += n;
        }
    }
    let (transpose_ns, kernel_ns, encode_ns) = probes(spec, ring, &mem)?;
    drop(mem);

    let (stopped, mut inputs) = rig.stop();
    let mut failed = load_tally.failed + climb.failed;
    let mut attempted = load_tally.attempted + climb.spans.len() as u64;
    let mut diagnostics = Vec::new();
    let rec = match stopped {
        Stopped::Embed(db) => {
            let reference = inputs.reference();
            attempted += reference.checks();
            for m in reference.mismatches(|v| db.query_view(v)) {
                diagnostics.push(format!("MISMATCH {m}"));
                failed += 1;
            }
            None
        }
        Stopped::Durable { db, dir } => {
            let rec = recovery(db, &dir, &mut inputs)?;
            for m in &rec.mismatches {
                diagnostics.push(format!("MISMATCH after reopen: {m}"));
                failed += 1;
            }
            attempted += SHARDS as u64 * TAIL_BATCHES + rec.checks;
            Some(rec)
        }
    };
    let cal = env::calibrate(&p.out, p.calibrate_for());
    remove_dir(&dir);

    let spans_path = Path::new(crate::OUT_DIR).join(format!("trace-{}.json", spec.name));
    match climb.write_spans(&spans_path) {
        Ok(()) => diagnostics.push(format!(
            "{} spans written to {}",
            climb.spans.len(),
            spans_path.display()
        )),
        Err(e) => {
            diagnostics.push(format!("writing {}: {e}", spans_path.display()));
            failed += 1;
        }
    }

    // The staircase, stair by stair, then the gap to the real load.
    let top = climb.top_us();
    let mut below = 0.0;
    for s in &climb.stairs {
        diagnostics.push(format!(
            "stair {:<28} p50 {:>10.2} us   +{:>9.2} us ({:>5.1}%) -> {}",
            s.name,
            s.p50_us,
            s.p50_us - below,
            100.0 * (s.p50_us - below) / top,
            s.layer
        ));
        below = s.p50_us;
    }
    let load_p50 = load_tally.acks.p50_us()
        + if spec.mixed {
            load_tally.queries.p50_us()
        } else {
            0.0
        };
    let gap = load_p50 - top;
    diagnostics.push(format!(
        "trace_gap {gap:.2} us: the real load's p50 {load_p50:.2} us (n={}, {} producers) minus the top stair's {top:.2} us (n={n}, 1 caller)",
        load_tally.acks.len(),
        inputs.rings.len()
    ));
    diagnostics.push(cal.describe());

    let rec = rec.unwrap_or_default();
    let stairs = format!("difference of adjacent stair medians, n={n} per stair");
    let load = format!("over the {:.1}-s load phase", p.seconds * LOAD_SHARE);
    let self_us = |layer| climb.self_us(layer);
    #[rustfmt::skip]
    let rows: [(&'static str, f64, &'static str, &str); 27] = [
        ("trace.top_stair_us", top, "us", "sum of the self times below"),
        ("trace.gap_us", gap, "us", "real load p50 minus top stair p50"),
        ("sql.parse_us", self_us("sql.parse_us"), "us", &stairs),
        ("views.self_us", self_us("views.self_us"), "us", "S1-S0: views + algebra + store"),
        ("durability.write_us", self_us("durability.write_us"), "us", &stairs),
        ("durability.fsync_us", self_us("durability.fsync_us"), "us", &stairs),
        ("core.hop_us", self_us("core.hop_us"), "us", &stairs),
        ("net.rtt_us", self_us("net.rtt_us"), "us", &stairs),
        ("core.tuples_per_flush", ratio(d.tuples_appended, d.wal_flushes), "count", &load),
        ("core.overload_rejections", d.overload_rejections as f64, "count", &load),
        ("core.session_replays", d.session_replays as f64, "count", &load),
        ("views.maintain_ns_per_tuple", ratio(d.maintenance_nanos, d.tuples_appended), "ns", &load),
        ("views.guard_skip_ratio", ratio(d.skipped_by_guard, d.skipped_by_guard + d.views_maintained), "ratio", &load),
        ("views.work_units_per_tuple", ratio(mem_d.work.total(), mem_d.tuples_appended), "count", "exact; stair S1"),
        ("algebra.vectorized_share", ratio(d.vectorized_views, d.views_maintained), "ratio", &load),
        ("algebra.kernel_ns_per_tuple", kernel_ns, "ns", "kernels::eval over the vectorizable views; 0 at batch 1"),
        ("store.transpose_ns_per_tuple", transpose_ns, "ns", "ChunkArena::build; 0 at batch 1"),
        ("durability.encode_ns_per_tuple", encode_ns, "ns", "WalRecord::encode"),
        ("durability.wal_bytes_per_tuple", ratio(wal_d.wal_bytes, wal_d.tuples_appended), "B", "exact; stair S2"),
        ("durability.checkpoints", d.checkpoints as f64, "count", &load),
        ("durability.checkpoint_bytes", rec.checkpoint_bytes as f64, "B", ".ckpt files after the explicit checkpoint"),
        ("durability.checkpoint_ms", rec.checkpoint_ms, "ms", "one explicit ShardedDb::checkpoint"),
        ("durability.recovery_ms", rec.recovery_ms, "ms", "median of 3 ShardedDb::open_with"),
        ("durability.replayed_records", rec.replayed_records as f64, "count", "exact; WAL tail after the checkpoint"),
        ("env.nproc", env::nproc() as f64, "count", ""),
        ("env.fsync_per_s", cal.fsync_per_s, "1/s", "64-byte write + fdatasync"),
        ("env.memcpy_gb_per_s", cal.memcpy_gb_per_s, "GB/s", "64 MiB copy"),
    ];
    let metrics: Vec<Metric> = rows
        .into_iter()
        .map(|(name, value, unit, note)| Metric::new(name, value, unit, note))
        .collect();
    Ok(Report {
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite()),
        metrics,
        diagnostics,
        attempted,
        failed,
    })
}
