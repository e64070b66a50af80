//! Wire-protocol error paths over real sockets: malformed and oversized
//! frames, protocol-version mismatches, mid-frame connection cuts, and
//! stale-term (fencing) traffic. Every case must produce a typed error or
//! a clean session drop — never a panic, never a partial apply — and the
//! server must keep serving other connections afterwards.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use chronicle_db::pipeline::ShardedPipeline;
use chronicle_db::{DurabilityOptions, ShardedDb};
use chronicle_net::frame::{encode_frame, FrameDecoder};
use chronicle_net::{
    Client, Message, RemoteOutcome, Replica, RetryClient, RetryPolicy, Role, Server,
    PROTOCOL_VERSION,
};
use chronicle_testkit::TempDir;
use chronicle_types::{ChronicleError, Chronon, Value};

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        segment_bytes: 1024,
        ..DurabilityOptions::default()
    }
}

/// A leader server over a fresh database with one chronicle and a
/// counting view, so tests can observe exactly how many appends applied.
fn start_leader(dir: &TempDir, name: &str) -> (ShardedPipeline, Server, String) {
    let db = ShardedDb::open_with(dir.path().join(name), 2, opts()).unwrap();
    let pipeline = ShardedPipeline::start(db, 64);
    let server = Server::start(pipeline.handle(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).unwrap();
    client.sql("CREATE GROUP g").unwrap();
    client
        .sql("CREATE CHRONICLE c (sn SEQ, x INT) IN GROUP g")
        .unwrap();
    client
        .sql("CREATE VIEW v AS SELECT x, COUNT(*) AS cnt FROM c GROUP BY x")
        .unwrap();
    client.goodbye();
    (pipeline, server, addr)
}

fn applied_rows(addr: &str) -> u64 {
    let mut client = Client::connect(addr).unwrap();
    let rows = match client.sql("SELECT * FROM v").unwrap() {
        RemoteOutcome::Rows(rows) => rows,
        other => panic!("expected rows, got {other:?}"),
    };
    client.goodbye();
    rows.iter()
        .map(|t| match t.values().last().unwrap() {
            chronicle_types::Value::Int(n) => *n as u64,
            other => panic!("expected count, got {other:?}"),
        })
        .sum()
}

/// Raw framed send/recv for speaking the protocol off the beaten path.
fn send_raw(stream: &mut TcpStream, msg: &Message) {
    stream.write_all(&encode_frame(&msg.encode())).unwrap();
}

fn recv_raw(stream: &mut TcpStream, dec: &mut FrameDecoder) -> Option<Message> {
    let mut buf = [0u8; 4096];
    loop {
        if let Some(payload) = dec.next_frame().unwrap() {
            return Some(Message::decode(&payload).unwrap());
        }
        let n = stream.read(&mut buf).unwrap();
        if n == 0 {
            return None;
        }
        dec.feed(&buf[..n]);
    }
}

fn hello(term: u64) -> Message {
    Message::Hello {
        role: Role::Client,
        version: PROTOCOL_VERSION,
        term,
    }
}

#[test]
fn corrupt_frame_drops_the_session_but_not_the_server() {
    let dir = TempDir::new("net-err-corrupt");
    let (pipeline, server, addr) = start_leader(&dir, "L");

    let mut stream = TcpStream::connect(&addr).unwrap();
    let mut frame = encode_frame(&hello(0).encode());
    let last = frame.len() - 1;
    frame[last] ^= 0xff; // payload no longer matches the CRC
    stream.write_all(&frame).unwrap();
    // The session drops: either a clean close or a reset, never a reply.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    assert!(matches!(stream.read(&mut buf), Ok(0) | Err(_)));

    // The server still serves well-formed sessions.
    let mut client = Client::connect(&addr).unwrap();
    client.sql("APPEND INTO c VALUES (1)").unwrap();
    client.goodbye();
    assert_eq!(applied_rows(&addr), 1);
    server.stop();
    pipeline.shutdown();
}

#[test]
fn oversized_frame_is_refused() {
    let dir = TempDir::new("net-err-oversized");
    let (pipeline, server, addr) = start_leader(&dir, "L");

    let mut stream = TcpStream::connect(&addr).unwrap();
    // A header announcing a frame bigger than MAX_FRAME; no body needed —
    // the length check fires before any payload byte is read.
    let mut header = Vec::new();
    header.extend_from_slice(&(chronicle_net::frame::MAX_FRAME as u32 + 1).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    stream.write_all(&header).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    assert!(matches!(stream.read(&mut buf), Ok(0) | Err(_)));

    let mut client = Client::connect(&addr).unwrap();
    assert!(client.sql("SELECT * FROM v").is_ok());
    client.goodbye();
    server.stop();
    pipeline.shutdown();
}

#[test]
fn protocol_version_mismatch_is_a_typed_refusal() {
    let dir = TempDir::new("net-err-version");
    let (pipeline, server, addr) = start_leader(&dir, "L");

    let mut stream = TcpStream::connect(&addr).unwrap();
    send_raw(
        &mut stream,
        &Message::Hello {
            role: Role::Client,
            version: PROTOCOL_VERSION + 7,
            term: 0,
        },
    );
    let mut dec = FrameDecoder::new();
    match recv_raw(&mut stream, &mut dec) {
        Some(Message::ErrReply(detail)) => {
            assert!(detail.contains("protocol version mismatch"), "{detail}")
        }
        other => panic!("expected a version refusal, got {other:?}"),
    }
    server.stop();
    pipeline.shutdown();
}

#[test]
fn mid_frame_cut_applies_nothing() {
    let dir = TempDir::new("net-err-cut");
    let (pipeline, server, addr) = start_leader(&dir, "L");

    // Handshake normally, then send half an APPEND frame and vanish.
    let mut stream = TcpStream::connect(&addr).unwrap();
    send_raw(&mut stream, &hello(0));
    let mut dec = FrameDecoder::new();
    assert!(matches!(
        recv_raw(&mut stream, &mut dec),
        Some(Message::Welcome { .. })
    ));
    let frame = encode_frame(
        &Message::Sql {
            sql: "APPEND INTO c VALUES (9)".into(),
            session: 7,
            seq: 1,
        }
        .encode(),
    );
    stream.write_all(&frame[..frame.len() / 2]).unwrap();
    drop(stream);

    // Give the server a moment to observe the close, then prove the cut
    // statement never half-applied and the server still answers.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(applied_rows(&addr), 0);
    server.stop();
    pipeline.shutdown();
}

#[test]
fn stale_term_traffic_is_fenced_with_a_typed_error() {
    let dir = TempDir::new("net-err-fenced");
    let (pipeline, server, addr) = start_leader(&dir, "L");

    // This server has never seen a promotion: term 0. A client that has
    // observed term 3 proves the server is deposed.
    let err = Client::connect_with_term(&addr, 3).unwrap_err();
    match err {
        ChronicleError::Fenced { observed, current } => {
            assert_eq!(observed, 0);
            assert_eq!(current, 3);
        }
        other => panic!("expected Fenced, got {other}"),
    }

    // Same fence on the shipping path: a follower announcing a higher
    // term in FetchWal is refused before a byte ships.
    let mut stream = TcpStream::connect(&addr).unwrap();
    send_raw(
        &mut stream,
        &Message::Hello {
            role: Role::Follower,
            version: PROTOCOL_VERSION,
            term: 0,
        },
    );
    let mut dec = FrameDecoder::new();
    assert!(matches!(
        recv_raw(&mut stream, &mut dec),
        Some(Message::Welcome { .. })
    ));
    send_raw(
        &mut stream,
        &Message::FetchWal {
            applied: vec![0, 0],
            term: 5,
        },
    );
    assert!(matches!(
        recv_raw(&mut stream, &mut dec),
        Some(Message::Fenced {
            observed: 0,
            current: 5
        })
    ));
    server.stop();
    pipeline.shutdown();
}

#[test]
fn stamped_retry_is_answered_from_cache_over_tcp() {
    let dir = TempDir::new("net-err-dedupe");
    let (pipeline, server, addr) = start_leader(&dir, "L");

    let mut client = Client::connect(&addr).unwrap();
    let first = client
        .sql_stamped("APPEND INTO c VALUES (2)", 0xCAFE, 1)
        .unwrap();
    // Simulate a lost ack: a second client replays the same stamp, as a
    // reconnecting retrier would.
    let mut again = Client::connect(&addr).unwrap();
    let second = again
        .sql_stamped("APPEND INTO c VALUES (2)", 0xCAFE, 1)
        .unwrap();
    assert_eq!(first, second, "retry must echo the cached ack");
    assert_eq!(applied_rows(&addr), 1, "the append must not apply twice");
    let stats = again.stats().unwrap();
    assert_eq!(stats.session_replays, 1);
    client.goodbye();
    again.goodbye();
    server.stop();
    pipeline.shutdown();
}

#[test]
fn unstamped_sql_on_a_full_queue_is_refused_not_parked() {
    let dir = TempDir::new("net-err-overload");
    let (pipeline, server, addr) = start_leader(&dir, "L");
    let handle = pipeline.handle();
    let shard = handle.shard_of("c").unwrap();

    // Park the worker that owns `c` inside a closure request, then fill
    // the 64-slot queue (`start_leader`'s capacity) behind it.
    let (parked_tx, parked_rx) = std::sync::mpsc::channel();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let parker = {
        let handle = handle.clone();
        std::thread::spawn(move || {
            handle
                .with_shard(shard, move |_| {
                    parked_tx.send(()).unwrap();
                    let _ = release_rx.recv();
                })
                .unwrap()
        })
    };
    parked_rx.recv().unwrap();
    for _ in 0..64 {
        handle
            .append_nowait("c", Chronon(0), vec![vec![Value::Int(1)]])
            .unwrap();
    }

    // An unstamped (`session == 0`) statement now gets the typed refusal
    // at once. The read timeout turns a session thread blocked on the
    // queue into a test failure instead of a hang.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut dec = FrameDecoder::new();
    send_raw(&mut stream, &hello(0));
    assert!(matches!(
        recv_raw(&mut stream, &mut dec),
        Some(Message::Welcome { .. })
    ));
    let sql = Message::Sql {
        sql: "APPEND INTO c VALUES (1)".into(),
        session: 0,
        seq: 0,
    };
    send_raw(&mut stream, &sql);
    let reply = recv_raw(&mut stream, &mut dec);
    assert!(
        matches!(reply, Some(Message::Overloaded { .. })),
        "expected Overloaded, got {reply:?}"
    );

    // Once the queue drains the same session is served again, and the
    // refused statement never applied.
    release_tx.send(()).unwrap();
    parker.join().unwrap();
    let reply = loop {
        send_raw(&mut stream, &sql);
        match recv_raw(&mut stream, &mut dec) {
            Some(Message::Overloaded { .. }) => continue,
            other => break other,
        }
    };
    assert!(matches!(reply, Some(Message::SqlOk(_))), "got {reply:?}");
    send_raw(&mut stream, &Message::Goodbye);
    assert_eq!(applied_rows(&addr), 65);
    server.stop();
    pipeline.shutdown();
}

/// A scripted fake server: welcomes the client, answers the first `n`
/// SQL requests with `Overloaded`, then acks. Exercises the client-side
/// typed mapping and the RetryClient's honoring of `retry_after`.
fn overloaded_then_ok(listener: TcpListener, refusals: usize) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut dec = FrameDecoder::new();
        let mut refused = 0;
        loop {
            let Some(msg) = recv_raw(&mut stream, &mut dec) else {
                return;
            };
            match msg {
                Message::Hello { .. } => {
                    send_raw(&mut stream, &Message::Welcome { shards: 1, term: 0 })
                }
                Message::Sql { .. } if refused < refusals => {
                    refused += 1;
                    send_raw(&mut stream, &Message::Overloaded { retry_after_ms: 5 });
                }
                Message::Sql { .. } => send_raw(
                    &mut stream,
                    &Message::SqlOk(RemoteOutcome::RelationChanged(1)),
                ),
                Message::Goodbye => return,
                other => panic!("fake server got {other:?}"),
            }
        }
    })
}

#[test]
fn retry_client_honors_overload_hints_and_dead_addresses() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let live_addr = listener.local_addr().unwrap().to_string();
    // A dead candidate first: bind-then-drop guarantees a refused connect.
    let dead_addr = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let fake = overloaded_then_ok(listener, 2);

    let policy = RetryPolicy {
        initial_backoff: Duration::from_millis(2),
        max_backoff: Duration::from_millis(20),
        deadline: Duration::from_secs(30),
        request_timeout: Duration::from_secs(5),
    };
    let mut rc = RetryClient::new(&[&dead_addr, &live_addr], 0xD00D, policy);
    let out = rc.sql("APPEND INTO r VALUES (1)").unwrap();
    assert_eq!(out, RemoteOutcome::RelationChanged(1));
    // One rotation off the dead address, two overload waits.
    assert!(rc.retries() >= 3, "retries: {}", rc.retries());
    assert_eq!(rc.seq(), 1);
    rc.goodbye();
    fake.join().unwrap();
}

#[test]
fn promotion_over_tcp_fences_the_old_lineage_and_redirects_clients() {
    let dir = TempDir::new("net-err-promote");
    let (pipeline, server, addr) = start_leader(&dir, "L");

    let mut client = Client::connect(&addr).unwrap();
    for i in 0..20 {
        client
            .sql(&format!("APPEND INTO c VALUES ({})", i % 3))
            .unwrap();
    }

    // A follower catches up fully, then the leader dies mid-flight.
    let follower_path = dir.path().join("F");
    let replica = Replica::start(&addr, &follower_path, opts()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while replica.replication_lag() != Some(0) {
        assert!(std::time::Instant::now() < deadline, "catch-up stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    client.goodbye();
    server.stop();
    let old_leader = pipeline.shutdown();

    // Promote: the follower becomes a live leader under term 1.
    let promoted = replica.promote().unwrap();
    assert_eq!(promoted.term(), 1);
    let new_pipeline = ShardedPipeline::start(promoted, 64);
    let new_server = Server::start(new_pipeline.handle(), "127.0.0.1:0").unwrap();
    let new_addr = new_server.addr().to_string();

    // A fresh follower attaches to the new leader and learns term 1 from
    // the shipped Term record.
    let f2_path = dir.path().join("F2");
    let f2 = Replica::start(&new_addr, &f2_path, opts()).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while f2.replication_lag() != Some(0) || f2.term() != 1 {
        assert!(std::time::Instant::now() < deadline, "F2 catch-up stalled");
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(f2.stop().unwrap());

    // The old leader restarts as a zombie, still at term 0.
    let zombie_pipeline = ShardedPipeline::start(old_leader, 64);
    let zombie_server = Server::start(zombie_pipeline.handle(), "127.0.0.1:0").unwrap();
    let zombie_addr = zombie_server.addr().to_string();

    // An informed client (observed term 1) is fenced off the zombie...
    assert!(matches!(
        Client::connect_with_term(&zombie_addr, 1),
        Err(ChronicleError::Fenced {
            observed: 0,
            current: 1
        })
    ));
    // ...and a promoted-lineage follower refuses to follow it.
    let stale = Replica::start(&zombie_addr, &f2_path, opts());
    assert!(
        matches!(stale, Err(ChronicleError::Fenced { .. })),
        "promoted-lineage follower must fence a stale leader"
    );

    // A retrying client walks the candidate list to the new leader and
    // keeps exactly-once semantics there.
    let mut rc = RetryClient::new(&[&new_addr, &zombie_addr], 0xF417, RetryPolicy::default());
    rc.sql("APPEND INTO c VALUES (7)").unwrap();
    assert_eq!(rc.last_term(), 1);
    assert_eq!(applied_rows(&new_addr), 21);
    rc.goodbye();

    new_server.stop();
    zombie_server.stop();
    new_pipeline.shutdown();
    zombie_pipeline.shutdown();
}
