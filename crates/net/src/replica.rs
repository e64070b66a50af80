//! The follower node: continuous ingest plus read-only serving.
//!
//! [`Replica::start`] connects to a leader, learns the shard count from
//! the `Welcome`, opens (or recovers) a local [`FollowerDb`] with the
//! same layout, and starts an ingest thread that applies the shipped WAL
//! stream continuously. The replica can additionally serve read-only SQL
//! (`SELECT` only) over its own listener — stale-bounded reads offloaded
//! from the leader, answered from continuously maintained views.
//!
//! A dropped leader connection ends the ingest thread; the follower's
//! durable state is a legal prefix of the leader's history (that is the
//! [`chronicle_durability::WalIngest`] contract), so a fresh
//! [`Replica::start`] — or a crash and restart — resumes where it left
//! off. Corrupt shipped bytes are refused loudly, never applied.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use chronicle_db::{DurabilityOptions, FollowerDb, ShardedDb};
use chronicle_sql::{parse, Statement};
use chronicle_types::{ChronicleError, Result};

use crate::conn::Conn;
use crate::proto::{Message, Role, WireStats, PROTOCOL_VERSION};

const STOP_POLL: Duration = Duration::from_millis(50);

/// Apply-progress signal: the ingest thread bumps the generation after
/// every applied message and [`Replica::wait_applied`] sleeps on the
/// condvar instead of polling.
#[derive(Debug, Default)]
struct Progress {
    generation: Mutex<u64>,
    changed: Condvar,
}

impl Progress {
    fn bump(&self) {
        *self.generation.lock().expect("progress lock") += 1;
        self.changed.notify_all();
    }
}

fn net_err(context: &str, e: std::io::Error) -> ChronicleError {
    ChronicleError::Durability {
        detail: format!("network: {context}: {e}"),
    }
}

/// A running follower node.
#[derive(Debug)]
pub struct Replica {
    follower: Arc<Mutex<FollowerDb>>,
    stop: Arc<AtomicBool>,
    ingest: Option<JoinHandle<Result<()>>>,
    serve_threads: Vec<JoinHandle<()>>,
    serve_addr: Option<SocketAddr>,
    progress: Arc<Progress>,
}

impl Replica {
    /// Connect to the leader at `leader_addr`, open the local follower
    /// database at `path` (shard count comes from the leader), and start
    /// ingesting.
    pub fn start(
        leader_addr: &str,
        path: impl AsRef<Path>,
        opts: DurabilityOptions,
    ) -> Result<Replica> {
        let stream =
            TcpStream::connect(leader_addr).map_err(|e| net_err("connecting leader", e))?;
        let mut conn = Conn::new(stream)?;
        // The local term is unknown until the database is open (the shard
        // count comes from the leader), so the Hello announces term 0 and
        // the stale-leader check runs against the Welcome below.
        conn.send(&Message::Hello {
            role: Role::Follower,
            version: PROTOCOL_VERSION,
            term: 0,
        })?;
        let (shards, leader_term) = match conn.recv()? {
            Message::Welcome { shards, term } => (shards as usize, term),
            Message::ErrReply(detail) => {
                return Err(ChronicleError::Durability {
                    detail: format!("remote: {detail}"),
                })
            }
            other => {
                return Err(ChronicleError::Corruption {
                    detail: format!("expected Welcome, got {other:?}"),
                })
            }
        };
        let follower = FollowerDb::open_with(path, shards, opts)?;
        // Fence a stale leader: a local term above the leader's proves
        // this follower's history descends from the leader's successor.
        follower.check_leader_term(leader_term)?;
        conn.send(&Message::FetchWal {
            applied: follower.applied_lsns(),
            term: follower.db().term(),
        })?;
        let follower = Arc::new(Mutex::new(follower));
        let stop = Arc::new(AtomicBool::new(false));
        let progress = Arc::new(Progress::default());
        let ingest = {
            let follower = Arc::clone(&follower);
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            std::thread::spawn(move || ingest_loop(conn, follower, stop, progress))
        };
        Ok(Replica {
            follower,
            stop,
            ingest: Some(ingest),
            serve_threads: Vec::new(),
            serve_addr: None,
            progress,
        })
    }

    /// Shared access to the follower database (queries, stats, digests).
    pub fn follower(&self) -> Arc<Mutex<FollowerDb>> {
        Arc::clone(&self.follower)
    }

    /// Per-shard applied lsns right now.
    pub fn applied_lsns(&self) -> Vec<u64> {
        self.follower.lock().expect("follower lock").applied_lsns()
    }

    /// Worst-shard replication lag per the freshest heartbeat.
    pub fn replication_lag(&self) -> Option<u64> {
        self.follower
            .lock()
            .expect("follower lock")
            .replication_lag()
    }

    /// True while the ingest thread is alive (leader still connected).
    pub fn connected(&self) -> bool {
        self.ingest.as_ref().is_some_and(|t| !t.is_finished())
    }

    /// Block until every shard's applied lsn reaches `target`, or
    /// `timeout` elapses; returns whether the target was reached. Sleeps
    /// on the ingest thread's progress condvar — woken the moment another
    /// message is applied, no polling loop.
    pub fn wait_applied(&self, target: &[u64], timeout: Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        let mut gen = self.progress.generation.lock().expect("progress lock");
        loop {
            // The applied check happens under the generation lock, so a
            // bump between check and wait cannot be missed.
            let applied = self.applied_lsns();
            if applied.len() == target.len() && applied.iter().zip(target).all(|(a, t)| a >= t) {
                return true;
            }
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            if left.is_zero() {
                return false;
            }
            let seen = *gen;
            let (next, _timed_out) = self
                .progress
                .changed
                .wait_timeout_while(gen, left, |g| *g == seen)
                .expect("progress lock");
            gen = next;
        }
    }

    /// The follower's current leadership term.
    pub fn term(&self) -> u64 {
        self.follower.lock().expect("follower lock").db().term()
    }

    /// Stop ingest and promote the follower into a live leader database
    /// under a fresh, durably logged term (see [`FollowerDb::promote`]).
    /// The returned [`ShardedDb`] is ready to serve — wrap it in a
    /// pipeline and a [`crate::Server`] to take writes.
    pub fn promote(self) -> Result<ShardedDb> {
        self.stop()?.promote()
    }

    /// Start a read-only SQL listener at `addr` (e.g. `"127.0.0.1:0"`).
    /// Only `SELECT` is served; everything else is refused.
    pub fn serve(&mut self, addr: &str) -> Result<SocketAddr> {
        let listener = TcpListener::bind(addr).map_err(|e| net_err("binding", e))?;
        let local = listener
            .local_addr()
            .map_err(|e| net_err("local_addr", e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| net_err("set_nonblocking", e))?;
        let follower = Arc::clone(&self.follower);
        let stop = Arc::clone(&self.stop);
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_sessions = Arc::clone(&sessions);
        let accept = std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let follower = Arc::clone(&follower);
                        let stop = Arc::clone(&stop);
                        let t = std::thread::spawn(move || {
                            let _ = serve_read_only(stream, follower, stop);
                        });
                        accept_sessions.lock().expect("session list").push(t);
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(5)),
                }
            }
            let ts = std::mem::take(&mut *accept_sessions.lock().expect("session list"));
            for t in ts {
                let _ = t.join();
            }
        });
        self.serve_threads.push(accept);
        self.serve_addr = Some(local);
        Ok(local)
    }

    /// The read-only listener's address, if serving.
    pub fn serve_addr(&self) -> Option<SocketAddr> {
        self.serve_addr
    }

    /// Stop ingest and serving, join all threads, and return the follower
    /// database (e.g. to inspect or promote it).
    pub fn stop(mut self) -> Result<FollowerDb> {
        self.stop.store(true, Ordering::Relaxed);
        let ingest_result = match self.ingest.take() {
            Some(t) => t
                .join()
                .unwrap_or_else(|_| Err(ChronicleError::Internal("ingest thread panicked".into()))),
            None => Ok(()),
        };
        for t in self.serve_threads.drain(..) {
            let _ = t.join();
        }
        let follower = Arc::try_unwrap(self.follower)
            .map_err(|_| ChronicleError::Internal("follower still shared after shutdown".into()))?
            .into_inner()
            .expect("follower lock");
        ingest_result?;
        Ok(follower)
    }
}

fn ingest_loop(
    mut conn: Conn,
    follower: Arc<Mutex<FollowerDb>>,
    stop: Arc<AtomicBool>,
    progress: Arc<Progress>,
) -> Result<()> {
    loop {
        if stop.load(Ordering::Relaxed) {
            let _ = conn.send(&Message::Goodbye);
            return Ok(());
        }
        let msg = match conn.try_recv(STOP_POLL) {
            Ok(Some(m)) => m,
            Ok(None) => continue,
            // A corrupt stream must surface; a leader that merely went
            // away ends the session normally — local state is a legal
            // prefix and a restart resumes from the applied watermark.
            Err(e @ ChronicleError::Corruption { .. }) => return Err(e),
            Err(_) => return Ok(()),
        };
        // The follower lock is released before the progress bump:
        // `wait_applied` takes progress-then-follower, so holding both
        // here in the other order would deadlock.
        {
            let mut f = follower.lock().expect("follower lock");
            match msg {
                Message::SegStart {
                    shard,
                    first_lsn,
                    term,
                } => {
                    // Fence a zombie ex-leader's shipper: a stream start
                    // carrying a term below ours must never be ingested.
                    f.check_leader_term(term)?;
                    f.begin_segment(shard as usize, first_lsn)?;
                }
                Message::SegBytes {
                    shard,
                    first_lsn: _,
                    offset,
                    bytes,
                } => {
                    f.ingest(shard as usize, offset, &bytes)?;
                }
                Message::SegSeal { shard, first_lsn } => {
                    f.seal_segment(shard as usize, first_lsn)?;
                }
                Message::Heartbeat { durable } => {
                    for (shard, lsn) in durable.into_iter().enumerate() {
                        f.note_leader_durable(shard, lsn);
                    }
                }
                Message::Goodbye => return Ok(()),
                Message::Fenced { observed, current } => {
                    return Err(ChronicleError::Fenced { observed, current })
                }
                other => {
                    return Err(ChronicleError::Corruption {
                        detail: format!("unexpected shipping message {other:?}"),
                    })
                }
            }
        }
        progress.bump();
    }
}

fn serve_read_only(
    stream: TcpStream,
    follower: Arc<Mutex<FollowerDb>>,
    stop: Arc<AtomicBool>,
) -> Result<()> {
    let mut conn = Conn::new(stream)?;
    let shards = follower.lock().expect("follower lock").db().shard_count();
    loop {
        let msg = loop {
            if stop.load(Ordering::Relaxed) {
                return Ok(());
            }
            if let Some(m) = conn.try_recv(STOP_POLL)? {
                break m;
            }
        };
        match msg {
            Message::Hello {
                role: Role::Client,
                version,
                term: _,
            } => {
                if version != PROTOCOL_VERSION {
                    conn.send(&Message::ErrReply(format!(
                        "protocol version mismatch: peer speaks v{version}, follower speaks v{PROTOCOL_VERSION}"
                    )))?;
                    return Ok(());
                }
                let term = follower.lock().expect("follower lock").db().term();
                conn.send(&Message::Welcome {
                    shards: shards as u32,
                    term,
                })?;
            }
            Message::Hello {
                role: Role::Follower,
                ..
            } => {
                conn.send(&Message::ErrReply(
                    "cascading replication is not supported".into(),
                ))?;
                return Ok(());
            }
            Message::Sql { sql, .. } => {
                let reply = match parse(&sql) {
                    Ok(Statement::Select { target, filters }) => {
                        match follower
                            .lock()
                            .expect("follower lock")
                            .db()
                            .select(&target, &filters)
                        {
                            Ok(rows) => Message::SqlOk(crate::proto::RemoteOutcome::Rows(rows)),
                            Err(e) => Message::ErrReply(e.to_string()),
                        }
                    }
                    Ok(_) => {
                        Message::ErrReply("read-only follower: only SELECT is served here".into())
                    }
                    Err(e) => Message::ErrReply(e.to_string()),
                };
                conn.send(&reply)?;
            }
            Message::StatsReq => {
                let stats = follower.lock().expect("follower lock").stats();
                conn.send(&Message::StatsReply(WireStats::from_db(&stats)))?;
            }
            Message::Goodbye => return Ok(()),
            other => {
                conn.send(&Message::ErrReply(format!("unexpected message {other:?}")))?;
                return Ok(());
            }
        }
    }
}
