//! The leader server: SQL sessions and WAL shipping over TCP.
//!
//! [`Server::start`] binds a listener and serves each connection on its
//! own thread, multiplexing every session onto one shared
//! [`ShardedPipelineHandle`] — the same concurrent front door the
//! in-process throughput experiment uses, so network clients and local
//! producers compose. Two session kinds exist, declared by the peer's
//! [`Hello`](crate::proto::Message::Hello):
//!
//! * **Client** — request/reply SQL. Statements run through
//!   [`ShardedPipelineHandle::execute_stamped`]; appends are acknowledged only
//!   after their shard's group-commit flush, so a `SqlOk` for an `APPEND`
//!   means *durable*, exactly like the local API.
//! * **Follower** — the connection becomes a one-way WAL byte stream
//!   driven by a [`Shipper`], interleaved with heartbeats carrying the
//!   leader's durable frontier.
//!
//! On start the server pins every shard's WAL retain floor at lsn 1, so
//! checkpoints stop deleting history a follower might still need. This is
//! the deliberately blunt v1 retention policy (see DESIGN.md §14);
//! per-follower floors are future work.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use chronicle_db::pipeline::{Admission, ShardedPipelineHandle};
use chronicle_db::LatencySample;
use chronicle_types::{mutate, ChronicleError, Result};

use crate::conn::Conn;
use crate::proto::{Message, Role, WireStats, PROTOCOL_VERSION};
use crate::ship::{ShipEvent, Shipper, WalSource, DEFAULT_CHUNK};

/// How long a catching-up follower session sleeps between pumps once it
/// has shipped everything durable.
const CATCHUP_POLL: Duration = Duration::from_millis(10);

/// How long session loops wait on the socket before re-checking the stop
/// flag.
const STOP_POLL: Duration = Duration::from_millis(50);

/// Retry hint attached to an [`Message::Overloaded`] refusal — roughly
/// the time a full pipeline queue takes to drain a few entries.
const OVERLOAD_RETRY_MS: u64 = 25;

/// Server-side counters, shared across sessions; folded into the
/// [`WireStats`] a `StatsReq` returns.
#[derive(Debug, Default)]
pub(crate) struct NetCounters {
    sessions: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    shipped_bytes: AtomicU64,
    requests: AtomicU64,
    overload_rejections: AtomicU64,
    latencies: Mutex<LatencySample>,
}

impl NetCounters {
    fn record_request(&self, nanos: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        self.latencies.lock().expect("latency lock").record(nanos);
    }

    fn fold_into(&self, stats: &mut WireStats) {
        stats.net_sessions = self.sessions.load(Ordering::Relaxed);
        stats.net_frames_in = self.frames_in.load(Ordering::Relaxed);
        stats.net_frames_out = self.frames_out.load(Ordering::Relaxed);
        stats.net_shipped_bytes = self.shipped_bytes.load(Ordering::Relaxed);
        stats.net_requests = self.requests.load(Ordering::Relaxed);
        stats.net_overload_rejections = self.overload_rejections.load(Ordering::Relaxed);
        let lat = self.latencies.lock().expect("latency lock");
        stats.net_latency_p50_nanos = lat.percentile(0.50);
        stats.net_latency_p99_nanos = lat.percentile(0.99);
    }
}

/// A running leader server. Dropping it without [`Server::stop`] leaves
/// detached session threads running until their sockets fail; call `stop`
/// for an orderly shutdown.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    counters: Arc<NetCounters>,
}

impl Server {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and serve
    /// the pipeline behind `handle` until [`Server::stop`].
    pub fn start(handle: ShardedPipelineHandle, addr: &str) -> Result<Server> {
        let listener = TcpListener::bind(addr).map_err(|e| ChronicleError::Durability {
            detail: format!("network: binding {addr}: {e}"),
        })?;
        let local = listener
            .local_addr()
            .map_err(|e| ChronicleError::Durability {
                detail: format!("network: local_addr: {e}"),
            })?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ChronicleError::Durability {
                detail: format!("network: set_nonblocking: {e}"),
            })?;
        // Blunt v1 retention: keep all history while the server lives.
        for shard in 0..handle.shard_count() {
            handle.with_shard(shard, |db| db.set_wal_retain_floor(1))??;
        }
        // A server's term is fixed for its lifetime: promotion happens on
        // a stopped replica, which then starts a *new* server.
        let term = handle.term()?;
        let stop = Arc::new(AtomicBool::new(false));
        let sessions: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let counters = Arc::new(NetCounters::default());
        let accept = {
            let stop = Arc::clone(&stop);
            let sessions = Arc::clone(&sessions);
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => {
                            counters.sessions.fetch_add(1, Ordering::Relaxed);
                            let handle = handle.clone();
                            let stop = Arc::clone(&stop);
                            let counters = Arc::clone(&counters);
                            let t = std::thread::spawn(move || {
                                // Session errors end the session; the
                                // server keeps serving.
                                let _ = serve_session(stream, handle, term, stop, counters);
                            });
                            sessions.lock().expect("session list").push(t);
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
            })
        };
        Ok(Server {
            addr: local,
            stop,
            accept: Some(accept),
            sessions,
            counters,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sessions accepted so far.
    pub fn sessions_accepted(&self) -> u64 {
        self.counters.sessions.load(Ordering::Relaxed)
    }

    /// Stop accepting, wake every session loop, and join all threads.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept.take() {
            let _ = t.join();
        }
        let sessions = std::mem::take(&mut *self.sessions.lock().expect("session list"));
        for t in sessions {
            let _ = t.join();
        }
    }
}

fn serve_session(
    stream: std::net::TcpStream,
    handle: ShardedPipelineHandle,
    term: u64,
    stop: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
) -> Result<()> {
    let mut conn = Conn::new(stream)?;
    let (role, peer_term) = loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match conn.try_recv(STOP_POLL)? {
            Some(Message::Hello {
                role,
                version,
                term: peer_term,
            }) => {
                if version != PROTOCOL_VERSION {
                    conn.send(&Message::ErrReply(format!(
                        "protocol version mismatch: peer speaks v{version}, server speaks v{PROTOCOL_VERSION}"
                    )))?;
                    return Ok(());
                }
                break (role, peer_term);
            }
            Some(other) => {
                conn.send(&Message::ErrReply(format!("expected Hello, got {other:?}")))?;
                return Ok(());
            }
            None => continue,
        }
    };
    // Fencing: a peer that has observed a higher term than ours proves we
    // are a deposed leader. Refuse before serving a single request, so a
    // zombie can neither accept writes from informed clients nor ship WAL
    // to a promoted-lineage follower.
    if peer_term > term && !mutate("skip_fencing") {
        conn.send(&Message::Fenced {
            observed: term,
            current: peer_term,
        })?;
        return Ok(());
    }
    conn.send(&Message::Welcome {
        shards: handle.shard_count() as u32,
        term,
    })?;
    let out = match role {
        Role::Client => serve_client(&mut conn, &handle, &stop, &counters),
        Role::Follower => serve_follower(&mut conn, &handle, term, &stop, &counters),
    };
    counters
        .frames_in
        .fetch_add(conn.frames_in, Ordering::Relaxed);
    counters
        .frames_out
        .fetch_add(conn.frames_out, Ordering::Relaxed);
    out
}

fn serve_client(
    conn: &mut Conn,
    handle: &ShardedPipelineHandle,
    stop: &AtomicBool,
    counters: &NetCounters,
) -> Result<()> {
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
            Message::Sql { sql, session, seq } => {
                let t0 = Instant::now();
                // Network sessions are refused (not blocked) when the
                // pipeline queue is full: blocking here would let one slow
                // shard stall every connection thread.
                let admit = Admission::Refuse {
                    retry_after_ms: OVERLOAD_RETRY_MS,
                };
                // `session == 0` is the wire's "unstamped" (see `proto`).
                let stamp = (session != 0).then_some((session, seq));
                let reply = match handle.execute_stamped(&sql, stamp, admit) {
                    Ok(outcome) => Message::SqlOk((&outcome).into()),
                    Err(ChronicleError::Overloaded { retry_after_ms }) => {
                        counters.overload_rejections.fetch_add(1, Ordering::Relaxed);
                        Message::Overloaded { retry_after_ms }
                    }
                    Err(ChronicleError::Fenced { observed, current }) => {
                        Message::Fenced { observed, current }
                    }
                    Err(e) => Message::ErrReply(e.to_string()),
                };
                counters.record_request(t0.elapsed().as_nanos() as u64);
                conn.send(&reply)?;
            }
            Message::StatsReq => {
                let t0 = Instant::now();
                let reply = match handle.stats() {
                    Ok(stats) => {
                        let mut wire = WireStats::from_db(&stats);
                        counters.fold_into(&mut wire);
                        Message::StatsReply(wire)
                    }
                    Err(e) => Message::ErrReply(e.to_string()),
                };
                counters.record_request(t0.elapsed().as_nanos() as u64);
                conn.send(&reply)?;
            }
            Message::Goodbye => return Ok(()),
            other => {
                conn.send(&Message::ErrReply(format!(
                    "unexpected client message {other:?}"
                )))?;
                return Ok(());
            }
        }
    }
}

fn serve_follower(
    conn: &mut Conn,
    handle: &ShardedPipelineHandle,
    term: u64,
    stop: &AtomicBool,
    counters: &NetCounters,
) -> Result<()> {
    let applied = loop {
        if stop.load(Ordering::Relaxed) {
            return Ok(());
        }
        match conn.try_recv(STOP_POLL)? {
            Some(Message::FetchWal {
                applied,
                term: follower_term,
            }) => {
                // A follower that has observed a higher term follows a
                // newer leader's lineage; shipping our stale history into
                // it would fork the replicated log.
                if follower_term > term && !mutate("skip_fencing") {
                    conn.send(&Message::Fenced {
                        observed: term,
                        current: follower_term,
                    })?;
                    return Ok(());
                }
                break applied;
            }
            Some(Message::Goodbye) | None => {
                if stop.load(Ordering::Relaxed) {
                    return Ok(());
                }
                continue;
            }
            Some(other) => {
                conn.send(&Message::ErrReply(format!(
                    "expected FetchWal, got {other:?}"
                )))?;
                return Ok(());
            }
        }
    };
    if applied.len() != handle.shard_count() {
        conn.send(&Message::ErrReply(format!(
            "FetchWal carries {} shards, server has {}",
            applied.len(),
            handle.shard_count()
        )))?;
        return Ok(());
    }
    let mut shipper = Shipper::new(&applied, DEFAULT_CHUNK);
    while !stop.load(Ordering::Relaxed) {
        let mut shipped = 0u64;
        let caught_up = shipper.pump(handle, &mut |event| {
            let msg = match event {
                ShipEvent::Start { shard, first_lsn } => Message::SegStart {
                    shard: shard as u32,
                    first_lsn,
                    term,
                },
                ShipEvent::Bytes {
                    shard,
                    first_lsn,
                    offset,
                    bytes,
                } => {
                    shipped += bytes.len() as u64;
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
            conn.send(&msg)
        })?;
        counters.shipped_bytes.fetch_add(shipped, Ordering::Relaxed);
        let mut durable = Vec::with_capacity(handle.shard_count());
        for shard in 0..handle.shard_count() {
            durable.push(WalSource::last_durable_lsn(handle, shard)?);
        }
        conn.send(&Message::Heartbeat { durable })?;
        if caught_up {
            // Nothing new to ship; poll the socket so a Goodbye (or a
            // dead peer) ends the session promptly, then look again.
            match conn.try_recv(CATCHUP_POLL) {
                Ok(Some(Message::Goodbye)) | Err(_) => return Ok(()),
                Ok(Some(_)) | Ok(None) => {}
            }
        }
    }
    Ok(())
}
