//! A concurrent append pipeline.
//!
//! §1 of the paper motivates the model with *transaction rate*: appends
//! arrive from many concurrent sources (switches, ATMs, ticker feeds), but
//! sequence-number monotonicity makes the maintenance step per chronicle
//! group inherently serial. The natural deployment is therefore a
//! many-producer / one-maintainer-per-shard pipeline: producers submit
//! work over bounded `std::sync::mpsc` channels; a dedicated thread per
//! shard owns that shard's [`ChronicleDb`], serializes the appends, and
//! runs maintenance. A single database runs the same pipeline with one
//! worker: `ShardedPipeline::start(db.into(), capacity)`.
//!
//! When the database is durable, each worker runs in *group-commit* mode:
//! it drains a burst of queued statements, applies them all with WAL
//! records buffered, issues one shared flush, and only then acknowledges
//! the producers. An acknowledged append has therefore always reached the
//! log, and concurrent producers share the cost of a single flush (and a
//! single fsync when enabled).

use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, RwLock};
use std::thread::JoinHandle;

use chronicle_sql::parse;
use chronicle_types::{ChronicleError, Chronon, Result, Tuple, Value};

use crate::db::{AppendOutcome, ChronicleDb, ExecOutcome};
use crate::shard::{RouteTarget, ShardRoutes, ShardedDb};
use crate::stats::DbStats;

/// How a submission behaves when the worker's bounded channel is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Wait for a slot (the embedded-producer default: backpressure by
    /// blocking).
    Block,
    /// Refuse immediately with [`ChronicleError::Overloaded`] carrying
    /// this retry hint — the wire server's policy, where blocking the
    /// session thread on one slow shard would stall every connection
    /// multiplexed behind it.
    Refuse {
        /// Suggested client-side delay before retrying, in milliseconds.
        retry_after_ms: u64,
    },
}

/// A request processed by a shard's maintenance thread.
enum Request {
    /// Append `rows` (SN-less) to `chronicle` at `at`.
    Append {
        chronicle: String,
        at: Chronon,
        rows: Vec<Vec<Value>>,
        /// Where to send the outcome; `None` for fire-and-forget.
        reply: Option<SyncSender<Result<AppendOutcome>>>,
    },
    /// A full SQL statement executed on this worker's database. Like an
    /// append it may log WAL records, so it is acknowledged only after
    /// the burst's shared flush. With `stamp: Some((session, seq))` the
    /// statement runs through the idempotent-session path
    /// ([`ChronicleDb::execute_stamped`]): a retry of the last applied
    /// statement is answered from the dedupe cache instead of re-applying.
    Exec {
        sql: String,
        stamp: Option<(u64, u64)>,
        reply: SyncSender<Result<ExecOutcome>>,
    },
    /// Everything that is not a statement (point queries, term, stats,
    /// the WAL shipping surface): a closure run against this worker's
    /// database in queue order and answered at once, between statements —
    /// it sees every statement submitted before it, applied but not
    /// necessarily yet flushed. WAL reads expose only flushed bytes, so a
    /// mid-burst answer can never leak an unacknowledged record.
    With(Box<dyn FnOnce(&mut ChronicleDb) + Send>),
    /// Stop the worker after draining everything submitted before this
    /// message. Requests queued after it are answered with an error when
    /// the channel closes.
    Shutdown,
}

/// An acknowledgement owed after the burst's shared flush.
enum Pending {
    Append(
        Result<AppendOutcome>,
        Option<SyncSender<Result<AppendOutcome>>>,
    ),
    Exec(Result<ExecOutcome>, SyncSender<Result<ExecOutcome>>),
}

impl Pending {
    /// Rewrite a success into a durability error (the shared flush failed,
    /// so nothing in this burst actually reached the log).
    fn fail_if_ok(&mut self, e: &ChronicleError) {
        let detail = format!("group-commit flush failed: {e}");
        match self {
            Pending::Append(o, _) if o.is_ok() => {
                *o = Err(ChronicleError::Durability { detail });
            }
            Pending::Exec(o, _) if o.is_ok() => {
                *o = Err(ChronicleError::Durability { detail });
            }
            _ => {}
        }
    }

    fn ack(self) {
        match self {
            // A dropped receiver just means the producer stopped caring;
            // not a pipeline error.
            Pending::Append(outcome, Some(reply)) => {
                let _ = reply.send(outcome);
            }
            Pending::Append(_, None) => {}
            Pending::Exec(outcome, reply) => {
                let _ = reply.send(outcome);
            }
        }
    }
}

fn shut_down() -> ChronicleError {
    ChronicleError::Internal("pipeline has shut down".into())
}

fn reply_dropped() -> ChronicleError {
    ChronicleError::Internal("pipeline dropped the reply".into())
}

/// One shard's maintenance thread and the channel feeding it.
struct Worker {
    tx: SyncSender<Request>,
    thread: JoinHandle<ChronicleDb>,
}

impl Worker {
    /// Spawn the maintenance thread for `db`. `capacity` is both the
    /// channel's backpressure bound and the group-commit window: at most
    /// that many statements share one WAL flush, so a saturated queue
    /// cannot defer acknowledgement (or, with `fsync` on, durability)
    /// beyond one channel's worth of work.
    fn spawn(mut db: ChronicleDb, capacity: usize) -> Worker {
        let (tx, rx): (SyncSender<Request>, Receiver<Request>) = sync_channel(capacity);
        let thread = std::thread::spawn(move || {
            let burst = capacity.max(1);
            // Buffer WAL records across a burst; durability happens at the
            // shared flush below, before any producer is acknowledged.
            db.set_wal_buffered(true);
            'serve: while let Ok(first) = rx.recv() {
                // Acknowledgements owed after the flush: each request's own
                // outcome plus where to send it.
                let mut pending: Vec<Pending> = Vec::new();
                let mut shutdown = false;
                let mut next = Some(first);
                while let Some(req) = next.take() {
                    match req {
                        Request::Append {
                            chronicle,
                            at,
                            rows,
                            reply,
                        } => {
                            let outcome = db.append(&chronicle, at, &rows);
                            pending.push(Pending::Append(outcome, reply));
                            if pending.len() < burst {
                                next = rx.try_recv().ok();
                            }
                        }
                        Request::Exec { sql, stamp, reply } => {
                            let outcome = db.execute_with(&sql, stamp);
                            pending.push(Pending::Exec(outcome, reply));
                            if pending.len() < burst {
                                next = rx.try_recv().ok();
                            }
                        }
                        Request::With(job) => {
                            job(&mut db);
                            next = rx.try_recv().ok();
                        }
                        Request::Shutdown => shutdown = true,
                    }
                }
                // One flush covers the whole burst (no-op for an in-memory
                // database). If it fails, every request that thought it
                // succeeded is NOT durable — report that, not success.
                if let Err(e) = db.wal_flush() {
                    for slot in pending.iter_mut() {
                        slot.fail_if_ok(&e);
                    }
                }
                for p in pending {
                    p.ack();
                }
                if shutdown {
                    break 'serve;
                }
            }
            let _ = db.wal_flush();
            db.set_wal_buffered(false);
            db
        });
        Worker { tx, thread }
    }
}

/// Handle to a running [`ShardedPipeline`]: a routing front-end over one
/// worker channel per shard. Cloneable; each clone is an independent
/// producer. Appends hash-route to the shard owning the target chronicle's
/// group, so two producers appending to different groups never contend on
/// the same channel or maintainer.
#[derive(Clone)]
pub struct ShardedPipelineHandle {
    workers: Vec<SyncSender<Request>>,
    /// Shared, mutable routing table: SQL DDL submitted through
    /// [`ShardedPipelineHandle::execute`] updates it under the write
    /// lock, while appends and queries take cheap read locks.
    routes: Arc<RwLock<ShardRoutes>>,
}

impl ShardedPipelineHandle {
    /// The shard an append to `chronicle` would go to.
    pub fn shard_of(&self, chronicle: &str) -> Result<usize> {
        self.routes
            .read()
            .expect("routes lock")
            .chronicle_shard(chronicle)
    }

    /// Number of shards behind this handle.
    pub fn shard_count(&self) -> usize {
        self.workers.len()
    }

    /// Submit an append to the owning shard and wait for its outcome
    /// (acknowledged only after that shard's group-commit flush).
    pub fn append(
        &self,
        chronicle: &str,
        at: Chronon,
        rows: Vec<Vec<Value>>,
    ) -> Result<AppendOutcome> {
        let (rtx, rrx) = sync_channel(1);
        self.submit_append(chronicle, at, rows, Some(rtx))?;
        rrx.recv().map_err(|_| reply_dropped())?
    }

    /// Submit an append to the owning shard without waiting (maximum
    /// throughput mode).
    pub fn append_nowait(&self, chronicle: &str, at: Chronon, rows: Vec<Vec<Value>>) -> Result<()> {
        self.submit_append(chronicle, at, rows, None)
    }

    fn submit_append(
        &self,
        chronicle: &str,
        at: Chronon,
        rows: Vec<Vec<Value>>,
        reply: Option<SyncSender<Result<AppendOutcome>>>,
    ) -> Result<()> {
        let s = self.shard_of(chronicle)?;
        self.workers[s]
            .send(Request::Append {
                chronicle: chronicle.to_string(),
                at,
                rows,
                reply,
            })
            .map_err(|_| shut_down())
    }

    /// Run `f` against shard `shard`'s database on its worker thread and
    /// return what it returned. The closure is queued like any request —
    /// it observes every statement submitted to that shard before it — and
    /// runs between statements, not inside the group commit: use it for
    /// reads and WAL control (`wal_*`, `set_wal_retain_floor`), never to
    /// append or execute, whose acknowledgement must wait for the flush.
    ///
    /// Panics if `shard >= shard_count()`.
    pub fn with_shard<R: Send + 'static>(
        &self,
        shard: usize,
        f: impl FnOnce(&mut ChronicleDb) -> R + Send + 'static,
    ) -> Result<R> {
        let (rtx, rrx) = sync_channel(1);
        self.workers[shard]
            .send(Request::With(Box::new(move |db| {
                let _ = rtx.send(f(db));
            })))
            .map_err(|_| shut_down())?;
        rrx.recv().map_err(|_| reply_dropped())
    }

    /// Point query against a view, serialized with the owning shard's
    /// appends: the answer reflects every append to that shard submitted
    /// on this handle before the query.
    pub fn query(&self, view: &str, key: Vec<Value>) -> Result<Option<Tuple>> {
        let s = self.routes.read().expect("routes lock").view_shard(view)?;
        let view = view.to_string();
        self.with_shard(s, move |db| db.query_view_key(&view, &key))?
    }

    /// Parse and execute one SQL statement through the shard workers —
    /// the full [`ShardedDb::execute`] surface over a *running* pipeline,
    /// routed by the same `ShardRoutes::plan` authority.
    ///
    /// Single-shard statements (appends, selects) take only a read lock
    /// and ride the owning shard's group-commit burst. DDL and relation
    /// broadcasts take the write lock: it serializes route updates and —
    /// critically for replica consistency — gives every shard the same
    /// broadcast order, since two unserialized broadcasts could apply in
    /// different orders on different shards and silently diverge the
    /// relation replicas.
    pub fn execute(&self, sql: &str) -> Result<ExecOutcome> {
        self.execute_stamped(sql, None, Admission::Block)
    }

    /// [`ShardedPipelineHandle::execute`] with an optional
    /// idempotent-session `(session, seq)` stamp and an admission policy.
    /// Routing is a pure function of the SQL and the catalog, so a
    /// byte-identical retry reaches the same shard(s) and dedupes there
    /// (see [`ShardedDb::execute_stamped`]). Under [`Admission::Refuse`] a
    /// full channel yields a typed [`ChronicleError::Overloaded`]
    /// immediately instead of blocking the caller behind the backlog. The
    /// admission policy applies to the single-shard fast path; broadcasts
    /// (DDL, relation DML — rare and already serialized by the write
    /// lock) always block, so a half-admitted broadcast cannot happen.
    pub fn execute_stamped(
        &self,
        sql: &str,
        stamp: Option<(u64, u64)>,
        admit: Admission,
    ) -> Result<ExecOutcome> {
        let stmt = parse(sql)?;
        let single = {
            let routes = self.routes.read().expect("routes lock");
            match routes.plan(&stmt)? {
                (RouteTarget::One(i), None) => Some(i),
                _ => None,
            }
        };
        if let Some(i) = single {
            return self.exec_on(i, sql, stamp, admit);
        }
        let mut routes = self.routes.write().expect("routes lock");
        // Re-plan under the exclusive lock: another DDL may have slipped
        // in between the read probe and here.
        let (target, effect) = routes.plan(&stmt)?;
        let out = match target {
            RouteTarget::One(i) => self.exec_on(i, sql, stamp, admit)?,
            RouteTarget::All => {
                let mut last = None;
                for i in 0..self.workers.len() {
                    last = Some(self.exec_on(i, sql, stamp, Admission::Block)?);
                }
                last.expect("at least one shard")
            }
        };
        if let Some(e) = effect {
            routes.apply(e);
        }
        Ok(out)
    }

    /// Submit one statement to shard `shard`'s worker and wait for its
    /// post-flush acknowledgement.
    fn exec_on(
        &self,
        shard: usize,
        sql: &str,
        stamp: Option<(u64, u64)>,
        admit: Admission,
    ) -> Result<ExecOutcome> {
        let (rtx, rrx) = sync_channel(1);
        let req = Request::Exec {
            sql: sql.to_string(),
            stamp,
            reply: rtx,
        };
        let tx = &self.workers[shard];
        match admit {
            Admission::Block => tx.send(req).map_err(|_| shut_down())?,
            Admission::Refuse { retry_after_ms } => match tx.try_send(req) {
                Ok(()) => {}
                Err(TrySendError::Full(_)) => {
                    return Err(ChronicleError::Overloaded { retry_after_ms });
                }
                Err(TrySendError::Disconnected(_)) => return Err(shut_down()),
            },
        }
        rrx.recv().map_err(|_| reply_dropped())?
    }

    /// Current leadership term: the max over every shard worker.
    pub fn term(&self) -> Result<u64> {
        let mut t = 0;
        for shard in 0..self.workers.len() {
            t = t.max(self.with_shard(shard, |db| db.term())?);
        }
        Ok(t)
    }

    /// Statistics aggregated across every shard worker (see
    /// [`ShardedDb::stats`] for the merge semantics).
    pub fn stats(&self) -> Result<DbStats> {
        let mut total = DbStats::default();
        for shard in 0..self.workers.len() {
            total.absorb(&self.with_shard(shard, |db| db.stats().clone())?);
        }
        Ok(total)
    }
}

/// One maintenance worker per shard: each shard's maintenance loop, group
/// commit, and WAL stream run on their own thread, so one shard's fsync
/// stall overlaps with another's maintenance. Producers route through
/// [`ShardedPipelineHandle`], which offers the whole statement surface —
/// DDL included, serialized under the routing table's write lock.
pub struct ShardedPipeline {
    workers: Vec<Worker>,
    routes: Arc<RwLock<ShardRoutes>>,
    manifest_salvaged: bool,
}

impl ShardedPipeline {
    /// Start one worker per shard, each with its own bounded channel of
    /// `capacity` (the per-shard backpressure bound and group-commit burst
    /// ceiling).
    pub fn start(db: ShardedDb, capacity: usize) -> ShardedPipeline {
        let (shards, routes, manifest_salvaged) = db.into_parts();
        ShardedPipeline {
            workers: shards
                .into_iter()
                .map(|s| Worker::spawn(s, capacity))
                .collect(),
            routes: Arc::new(RwLock::new(routes)),
            manifest_salvaged,
        }
    }

    /// A producer handle (routing front-end over all shards).
    pub fn handle(&self) -> ShardedPipelineHandle {
        ShardedPipelineHandle {
            workers: self.workers.iter().map(|w| w.tx.clone()).collect(),
            routes: Arc::clone(&self.routes),
        }
    }

    /// Shut down: every worker drains the requests submitted before this
    /// call, then stops; the database is reassembled from the shards.
    /// Outstanding producer handles stay valid objects but all their sends
    /// fail from this point on.
    pub fn shutdown(self) -> ShardedDb {
        // A Shutdown marker drains in FIFO order behind all earlier work;
        // the worker exits when it sees it, dropping the receiver, which
        // fails any later sends instead of blocking them. Post every
        // marker up front so all shards drain concurrently.
        for w in &self.workers {
            let _ = w.tx.send(Request::Shutdown);
        }
        let routes = self.routes.read().expect("routes lock").clone();
        let shards = self
            .workers
            .into_iter()
            .map(|w| w.thread.join().expect("maintenance thread panicked"))
            .collect();
        ShardedDb::from_parts(shards, routes, self.manifest_salvaged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronicle_types::SeqNo;

    fn db() -> ChronicleDb {
        let mut db = ChronicleDb::new();
        db.execute("CREATE CHRONICLE txns (sn SEQ, acct INT, amount FLOAT)")
            .unwrap();
        db.execute(
            "CREATE VIEW balances AS SELECT acct, SUM(amount) AS balance FROM txns GROUP BY acct",
        )
        .unwrap();
        db
    }

    #[test]
    fn single_producer_round_trip() {
        let p = ShardedPipeline::start(db().into(), 16);
        let h = p.handle();
        let out = h
            .append(
                "txns",
                Chronon(1),
                vec![vec![Value::Int(7), Value::Float(5.0)]],
            )
            .unwrap();
        assert_eq!(out.seq, SeqNo(1));
        let db = p.shutdown();
        assert_eq!(
            db.query_view_key("balances", &[Value::Int(7)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Float(5.0)
        );
    }

    #[test]
    fn concurrent_producers_serialize_correctly() {
        let p = ShardedPipeline::start(db().into(), 64);
        let mut joins = Vec::new();
        for t in 0..4i64 {
            let h = p.handle();
            joins.push(std::thread::spawn(move || {
                for i in 0..50i64 {
                    h.append(
                        "txns",
                        // Chronons may repeat across threads; monotonicity
                        // within the group is what matters, and equal
                        // chronons are legal.
                        Chronon(0),
                        vec![vec![Value::Int(t), Value::Float(i as f64)]],
                    )
                    .unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let db = p.shutdown();
        // Each producer's account got sum 0+1+…+49 = 1225.
        for t in 0..4i64 {
            assert_eq!(
                db.query_view_key("balances", &[Value::Int(t)])
                    .unwrap()
                    .unwrap()
                    .get(1),
                &Value::Float(1225.0)
            );
        }
        assert_eq!(db.stats().appends, 200);
    }

    #[test]
    fn nowait_appends_drain_on_shutdown() {
        let p = ShardedPipeline::start(db().into(), 256);
        let h = p.handle();
        for i in 0..100i64 {
            h.append_nowait(
                "txns",
                Chronon(0),
                vec![vec![Value::Int(1), Value::Float(i as f64)]],
            )
            .unwrap();
        }
        let db = p.shutdown();
        assert_eq!(db.stats().appends, 100);
    }

    fn sharded_db(shards: usize) -> ShardedDb {
        let mut db = ShardedDb::new(shards).unwrap();
        for g in 0..4 {
            db.execute(&format!("CREATE GROUP g{g}")).unwrap();
            db.execute(&format!(
                "CREATE CHRONICLE c{g} (sn SEQ, acct INT, amount FLOAT) IN GROUP g{g}"
            ))
            .unwrap();
            db.execute(&format!(
                "CREATE VIEW v{g} AS SELECT acct, SUM(amount) AS balance FROM c{g} GROUP BY acct"
            ))
            .unwrap();
        }
        db
    }

    #[test]
    fn sharded_pipeline_routes_appends_and_queries() {
        let p = ShardedPipeline::start(sharded_db(3), 16);
        let h = p.handle();
        for g in 0..4 {
            let out = h
                .append(
                    &format!("c{g}"),
                    Chronon(1),
                    vec![vec![Value::Int(7), Value::Float(g as f64)]],
                )
                .unwrap();
            // Every group runs its own SN sequence.
            assert_eq!(out.seq, SeqNo(1));
        }
        assert_eq!(
            h.query("v2", vec![Value::Int(7)]).unwrap().unwrap().get(1),
            &Value::Float(2.0)
        );
        let db = p.shutdown();
        assert_eq!(db.stats().appends, 4);
    }

    #[test]
    fn sharded_concurrent_producers_per_group() {
        let p = ShardedPipeline::start(sharded_db(4), 32);
        let mut joins = Vec::new();
        for g in 0..4i64 {
            let h = p.handle();
            joins.push(std::thread::spawn(move || {
                let chron = format!("c{g}");
                for i in 0..50i64 {
                    h.append(
                        &chron,
                        Chronon(i),
                        vec![vec![Value::Int(g), Value::Float(i as f64)]],
                    )
                    .unwrap();
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        let db = p.shutdown();
        for g in 0..4i64 {
            assert_eq!(
                db.query_view_key(&format!("v{g}"), &[Value::Int(g)])
                    .unwrap()
                    .unwrap()
                    .get(1),
                &Value::Float(1225.0)
            );
        }
        assert_eq!(db.stats().appends, 200);
    }

    #[test]
    fn sharded_unknown_chronicle_is_routing_error() {
        let p = ShardedPipeline::start(sharded_db(2), 8);
        let h = p.handle();
        assert!(h.append("ghost", Chronon(0), vec![]).is_err());
        assert!(h.append_nowait("ghost", Chronon(0), vec![]).is_err());
        assert!(h.query("ghost_view", vec![]).is_err());
        let db = p.shutdown();
        assert_eq!(db.stats().appends, 0);
    }

    #[test]
    fn refused_admission_is_typed_overloaded() {
        // A handle over a full channel that nothing drains: Block would
        // wait forever, Refuse must return the typed error immediately.
        let (tx, rx) = sync_channel(1);
        tx.send(Request::Shutdown).unwrap(); // fill the only slot
        let (_, routes, _) = ShardedDb::from(db()).into_parts();
        let h = ShardedPipelineHandle {
            workers: vec![tx],
            routes: Arc::new(RwLock::new(routes)),
        };
        let err = h
            .execute_stamped(
                "APPEND INTO txns VALUES (1, 1.0)",
                Some((7, 1)),
                Admission::Refuse { retry_after_ms: 25 },
            )
            .unwrap_err();
        assert!(
            matches!(
                err,
                chronicle_types::ChronicleError::Overloaded { retry_after_ms: 25 }
            ),
            "{err}"
        );
        drop(rx);
        // With the receiver gone, Refuse reports shutdown, not overload.
        let err = h
            .execute_stamped(
                "APPEND INTO txns VALUES (1, 1.0)",
                Some((7, 2)),
                Admission::Refuse { retry_after_ms: 25 },
            )
            .unwrap_err();
        assert!(
            matches!(err, chronicle_types::ChronicleError::Internal(_)),
            "{err}"
        );
    }

    #[test]
    fn stamped_execs_dedupe_through_the_pipeline() {
        let p = ShardedPipeline::start(sharded_db(2), 16);
        let h = p.handle();
        let out = h
            .execute_stamped(
                "APPEND INTO c1 VALUES (7, 5.0)",
                Some((42, 1)),
                Admission::Block,
            )
            .unwrap();
        let ExecOutcome::Appended(a) = out else {
            panic!("append expected");
        };
        // A retry with the same stamp answers from cache...
        let retry = h
            .execute_stamped(
                "APPEND INTO c1 VALUES (7, 5.0)",
                Some((42, 1)),
                Admission::Block,
            )
            .unwrap();
        let ExecOutcome::Appended(b) = retry else {
            panic!("append expected");
        };
        assert_eq!(a.seq, b.seq);
        // ...and the next seq applies fresh work.
        h.execute_stamped(
            "APPEND INTO c1 VALUES (7, 3.0)",
            Some((42, 2)),
            Admission::Block,
        )
        .unwrap();
        assert_eq!(h.term().unwrap(), 0);
        let db = p.shutdown();
        assert_eq!(db.stats().appends, 2, "the retry must not re-apply");
        assert_eq!(db.stats().session_replays, 1);
        assert_eq!(
            db.query_view_key("v1", &[Value::Int(7)])
                .unwrap()
                .unwrap()
                .get(1),
            &Value::Float(8.0)
        );
    }

    #[test]
    fn bad_append_reports_error_not_poison() {
        let p = ShardedPipeline::start(db().into(), 16);
        let h = p.handle();
        let err = h.append("ghost", Chronon(0), vec![vec![Value::Int(1)]]);
        assert!(err.is_err());
        // Pipeline still alive.
        h.append(
            "txns",
            Chronon(1),
            vec![vec![Value::Int(1), Value::Float(1.0)]],
        )
        .unwrap();
        let db = p.shutdown();
        assert_eq!(db.stats().appends, 1);
    }
}
