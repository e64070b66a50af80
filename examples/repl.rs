//! An interactive shell for the chronicle database.
//!
//! Run with `cargo run --example repl` for an in-memory session, or
//! `cargo run --example repl -- /path/to/db` for a durable one (the path
//! is created on first use and recovered on every start). Add
//! `shards=N` to run the maintenance engine hash-partitioned by
//! chronicle group into N shards (`cargo run --example repl -- /path/to/db
//! shards=4`); a durable sharded database must be reopened with the same
//! N it was created with. Add `salvage` to open under
//! [`RecoveryPolicy::Salvage`]: instead of refusing a corrupt disk, the
//! open recovers the maximal legal prefix, quarantines every untrusted
//! file, and prints the salvage report. Then type statements:
//!
//! ```text
//! chronicle> CREATE CHRONICLE calls (sn SEQ, caller INT, minutes FLOAT)
//! chronicle> CREATE VIEW totals AS SELECT caller, SUM(minutes) AS m FROM calls GROUP BY caller
//! chronicle> APPEND INTO calls VALUES (555, 12.5)
//! chronicle> SELECT * FROM totals
//! chronicle> .views          -- list views with their IM classes
//! chronicle> .stats          -- maintenance + durability statistics
//! chronicle> .checkpoint     -- persist views, truncate the WAL (\checkpoint works too)
//! chronicle> .scrub          -- read-only integrity check of every durable file
//! chronicle> .quit
//! ```
//!
//! The same binary also speaks the wire protocol (`chronicle::net`). A
//! leading mode word picks the role:
//!
//! ```text
//! repl serve <path> [shards=N] [addr=HOST:PORT] [salvage]
//!     Open the database and serve SQL sessions + WAL shipping on
//!     addr (default 127.0.0.1:7878). The console stays interactive
//!     (.stats / .quit).
//! repl follow <leader HOST:PORT> <path> [ro=HOST:PORT] [salvage]
//!     Start a follower: ship the leader's WAL into a local database at
//!     <path> and keep views maintained. With ro=, also serve read-only
//!     SELECTs on that address. Console: .lag / .applied / SELECT … /
//!     .promote [addr=HOST:PORT] / .quit. `.promote` is the failover
//!     step: it stops ingest, bumps the leader term (fencing any stream
//!     the deposed leader still tries to ship), and turns this process
//!     into a serving leader on the given address.
//! repl connect <HOST:PORT[,HOST:PORT...]> [session=N]
//!     A SQL shell over the wire against a leader (full SQL) or a
//!     follower's ro= listener (SELECT only). With session=N every
//!     statement is stamped (session, seq) and sent through the retry
//!     client: timeouts, overload pushback, and fencing rotate through
//!     the comma-separated candidate addresses with backoff, and a
//!     stamp that was already applied is answered from the leader's
//!     dedupe cache instead of re-executing. `.session` inspects the
//!     stamp state (session id, next seq, retries, last term seen).
//! ```

use std::io::{BufRead, Write};

use chronicle::db::pipeline::{ShardedPipeline, ShardedPipelineHandle};
use chronicle::db::{ExecOutcome, ShardedDb};
use chronicle::net::{Client, RemoteOutcome, Replica, RetryClient, RetryPolicy, Server};
use chronicle::prelude::*;

fn print_views(db: &ShardedDb) {
    for (i, shard) in db.shards().iter().enumerate() {
        let origin = if db.shard_count() > 1 {
            format!("s{i} ")
        } else {
            String::new()
        };
        for v in shard.maintainer().iter_views() {
            let (language, class, def) = match v.def() {
                ViewDef::Chronicle(expr) => (
                    expr.language_name(),
                    expr.im_class().to_string(),
                    expr.to_string(),
                ),
                ViewDef::Periodic(family) => (
                    family.template().language_name(),
                    family.template().im_class().to_string(),
                    format!("{} OVER {:?}", family.template(), family.calendar()),
                ),
                ViewDef::Relation(query) => ("RQ", String::new(), query.to_string()),
            };
            println!(
                "{origin}{:<24} {:<10} {:<12} rows={:<8} {def}",
                v.name(),
                language,
                class,
                v.len(),
            );
        }
    }
}

fn scrub(db: &ShardedDb) {
    if !db.shard(0).is_durable() {
        println!("nothing to scrub: this session is in-memory");
        return;
    }
    match db.scrub() {
        Ok(report) => println!("{report}"),
        Err(e) => println!("scrub failed: {e}"),
    }
}

/// After a durable open: surface what salvage recovery had to do, if
/// anything. Quiet on clean opens and under `Strict` (no report).
fn print_salvage(db: &ShardedDb) {
    for (i, sr) in db.salvage_reports() {
        if !sr.is_trivial() {
            if db.shard_count() > 1 {
                println!("shard {i}:");
            }
            print!("{sr}");
        }
    }
    if db.manifest_salvaged() {
        println!("shard manifest was corrupt: quarantined and rewritten");
    }
}

fn checkpoint(db: &mut ShardedDb) {
    match db.checkpoint() {
        Ok(lsns) => {
            for (i, lsn) in lsns.iter().enumerate() {
                if lsns.len() > 1 {
                    print!("shard {i}: ");
                }
                println!("checkpoint written through lsn {lsn}");
            }
        }
        Err(e) => println!("error: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return serve_main(&args[1..]),
        Some("follow") => return follow_main(&args[1..]),
        Some("connect") => return connect_main(&args[1..]),
        _ => {}
    }
    let mut path: Option<String> = None;
    let mut shards: Option<usize> = None;
    let mut recovery = RecoveryPolicy::Strict;
    for arg in args {
        if let Some(n) = arg.strip_prefix("shards=") {
            match n.parse::<usize>() {
                Ok(n) if n > 0 => shards = Some(n),
                _ => {
                    eprintln!("invalid shard count `{n}` (want shards=N, N >= 1)");
                    std::process::exit(1);
                }
            }
        } else if arg == "salvage" {
            recovery = RecoveryPolicy::Salvage;
        } else {
            path = Some(arg);
        }
    }
    let opts = DurabilityOptions {
        recovery,
        ..DurabilityOptions::default()
    };
    // Either topology is held as a `ShardedDb`; a plain database is the
    // one-shard case (`.into()`), its directory layout untouched.
    let mut db: ShardedDb = match (path, shards) {
        (Some(path), None) => match ChronicleDb::open_with(&path, opts) {
            Ok(db) => {
                let s = db.stats();
                println!(
                    "opened `{path}` (checkpoint lsn {:?}, {} WAL records replayed)",
                    s.recovery_checkpoint_lsn, s.recovery_replayed_records
                );
                db.into()
            }
            Err(e) => {
                eprintln!("cannot open `{path}`: {e}");
                std::process::exit(1);
            }
        },
        (Some(path), Some(n)) => match ShardedDb::open_with(&path, n, opts) {
            Ok(db) => {
                let s = db.stats();
                println!(
                    "opened `{path}` across {n} shard(s) ({} WAL records replayed)",
                    s.recovery_replayed_records
                );
                db
            }
            Err(e) => {
                eprintln!("cannot open `{path}` with {n} shard(s): {e}");
                std::process::exit(1);
            }
        },
        (None, Some(n)) => ShardedDb::new(n).expect("shards >= 1"),
        (None, None) => ChronicleDb::new().into(),
    };
    print_salvage(&db);
    let stdin = std::io::stdin();
    let mut out = std::io::stdout();
    println!("chronicle repl — SQL statements, or .views / .stats / .checkpoint / .scrub / .quit");
    loop {
        print!("chronicle> ");
        out.flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match line {
            ".quit" | ".exit" => break,
            ".views" => {
                print_views(&db);
                continue;
            }
            ".stats" => {
                let s = db.stats();
                println!(
                    "appends: {}  tuples: {}  mean maintenance: {:.0} ns  p99: {} ns",
                    s.appends,
                    s.tuples_appended,
                    s.mean_maintenance_nanos(),
                    s.latency_percentile(0.99)
                );
                println!(
                    "router: {} guard-skips, {} interval-skips; work: {:?}",
                    s.skipped_by_guard, s.skipped_by_interval, s.work
                );
                if db.shard(0).is_durable() {
                    println!(
                        "wal: {} records, {} bytes, {} flushes; checkpoints: {}",
                        s.wal_records, s.wal_bytes, s.wal_flushes, s.checkpoints
                    );
                }
                continue;
            }
            ".checkpoint" | "\\checkpoint" => {
                checkpoint(&mut db);
                continue;
            }
            ".scrub" => {
                scrub(&db);
                continue;
            }
            _ => {}
        }
        match db.execute(line) {
            Ok(ExecOutcome::Created(kind, name)) => println!("created {kind} `{name}`"),
            Ok(ExecOutcome::Appended(o)) => println!(
                "appended at {} ({} views maintained in {} ns)",
                o.seq,
                o.report.views.len(),
                o.report.elapsed_nanos
            ),
            Ok(ExecOutcome::RelationChanged(n)) => println!("{n} row(s) changed"),
            Ok(ExecOutcome::Rows(rows)) => {
                for r in &rows {
                    println!("{r}");
                }
                println!("({} row(s))", rows.len());
            }
            Ok(ExecOutcome::Dropped(name)) => println!("dropped `{name}`"),
            Err(e) => println!("error: {e}"),
        }
    }
    println!("bye");
}

/// Prompt, read one trimmed console line; `None` on EOF or read error.
fn read_line(prompt: &str) -> Option<String> {
    print!("{prompt}");
    std::io::stdout().flush().ok();
    let mut line = String::new();
    match std::io::stdin().lock().read_line(&mut line) {
        Ok(0) => None,
        Ok(_) => Some(line.trim().to_string()),
        Err(e) => {
            eprintln!("read error: {e}");
            None
        }
    }
}

fn print_remote(outcome: RemoteOutcome) {
    match outcome {
        RemoteOutcome::Created(kind, name) => println!("created {kind} `{name}`"),
        RemoteOutcome::Appended { seq, at } => println!("appended at {seq} (chronon {at})"),
        RemoteOutcome::RelationChanged(n) => println!("{n} row(s) changed"),
        RemoteOutcome::Rows(rows) => {
            for r in &rows {
                println!("{r}");
            }
            println!("({} row(s))", rows.len());
        }
        RemoteOutcome::Dropped(name) => println!("dropped `{name}`"),
    }
}

/// `repl serve <path> [shards=N] [addr=HOST:PORT] [salvage]` — the leader:
/// open a durable database, serve SQL sessions and WAL shipping on a TCP
/// listener, and keep a small console for the operator.
fn serve_main(args: &[String]) {
    let mut path: Option<String> = None;
    let mut shards = 1usize;
    let mut addr = String::from("127.0.0.1:7878");
    let mut recovery = RecoveryPolicy::Strict;
    for arg in args {
        if let Some(n) = arg.strip_prefix("shards=") {
            match n.parse::<usize>() {
                Ok(n) if n > 0 => shards = n,
                _ => {
                    eprintln!("invalid shard count `{n}` (want shards=N, N >= 1)");
                    std::process::exit(1);
                }
            }
        } else if let Some(a) = arg.strip_prefix("addr=") {
            addr = a.to_string();
        } else if arg == "salvage" {
            recovery = RecoveryPolicy::Salvage;
        } else {
            path = Some(arg.clone());
        }
    }
    let Some(path) = path else {
        eprintln!("usage: repl serve <path> [shards=N] [addr=HOST:PORT] [salvage]");
        std::process::exit(1);
    };
    let opts = DurabilityOptions {
        recovery,
        ..DurabilityOptions::default()
    };
    let db = match ShardedDb::open_with(&path, shards, opts) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open `{path}` with {shards} shard(s): {e}");
            std::process::exit(1);
        }
    };
    let pipeline = ShardedPipeline::start(db, 64);
    let server = match Server::start(pipeline.handle(), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "serving `{path}` ({shards} shard(s)) on {} — clients: `repl connect {0}`, \
         followers: `repl follow {0} <path>`",
        server.addr()
    );
    let handle = pipeline.handle();
    leader_console(&handle, &server);
    server.stop();
    pipeline.shutdown();
    println!("bye");
}

/// The serving leader's operator console (`.stats` / `.quit`), shared by
/// `repl serve` and a follower that just ran `.promote`.
fn leader_console(handle: &ShardedPipelineHandle, server: &Server) {
    while let Some(line) = read_line("leader> ") {
        match line.as_str() {
            "" => continue,
            ".quit" | ".exit" => break,
            ".stats" => match handle.stats() {
                Ok(s) => println!(
                    "appends: {}  tuples: {}  wal: {} records / {} bytes  \
                     checkpoints: {}  sessions accepted: {}",
                    s.appends,
                    s.tuples_appended,
                    s.wal_records,
                    s.wal_bytes,
                    s.checkpoints,
                    server.sessions_accepted()
                ),
                Err(e) => println!("error: {e}"),
            },
            other => {
                println!("unknown command `{other}` — SQL goes over the wire (`repl connect`)")
            }
        }
    }
}

/// `repl follow <leader HOST:PORT> <path> [ro=HOST:PORT] [salvage]` — a
/// follower: continuous WAL ingest from the leader into a local database,
/// optionally serving read-only SELECTs, with a console for lag and local
/// queries.
fn follow_main(args: &[String]) {
    let mut positional: Vec<String> = Vec::new();
    let mut ro: Option<String> = None;
    let mut recovery = RecoveryPolicy::Strict;
    for arg in args {
        if let Some(a) = arg.strip_prefix("ro=") {
            ro = Some(a.to_string());
        } else if arg == "salvage" {
            recovery = RecoveryPolicy::Salvage;
        } else {
            positional.push(arg.clone());
        }
    }
    let [leader, path] = positional.as_slice() else {
        eprintln!("usage: repl follow <leader HOST:PORT> <path> [ro=HOST:PORT] [salvage]");
        std::process::exit(1);
    };
    let opts = DurabilityOptions {
        recovery,
        ..DurabilityOptions::default()
    };
    let mut replica = match Replica::start(leader, path, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot follow {leader}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "following {leader} into `{path}` ({} shard(s))",
        replica
            .follower()
            .lock()
            .expect("follower lock")
            .db()
            .shard_count()
    );
    if let Some(ro) = ro {
        match replica.serve(&ro) {
            Ok(a) => println!("read-only listener on {a} — `repl connect {a}`"),
            Err(e) => {
                eprintln!("cannot listen on {ro}: {e}");
                std::process::exit(1);
            }
        }
    }
    let mut promote_addr: Option<String> = None;
    while let Some(line) = read_line("follower> ") {
        match line.as_str() {
            "" => continue,
            ".quit" | ".exit" => break,
            cmd if cmd == ".promote" || cmd.starts_with(".promote ") => {
                let rest = cmd[".promote".len()..].trim();
                let addr = rest.strip_prefix("addr=").unwrap_or(rest);
                promote_addr = Some(if addr.is_empty() {
                    // An ephemeral port: the bound address is printed once
                    // the listener is up.
                    String::from("127.0.0.1:0")
                } else {
                    addr.to_string()
                });
                break;
            }
            ".lag" => match replica.replication_lag() {
                Some(lag) => println!(
                    "{lag} record(s) behind the leader's durable frontier \
                     (connected: {})",
                    replica.connected()
                ),
                None => println!("no heartbeat yet (connected: {})", replica.connected()),
            },
            ".applied" => println!("applied lsns per shard: {:?}", replica.applied_lsns()),
            sql => {
                // Local reads against the continuously maintained views;
                // everything else belongs on the leader.
                let f = replica.follower();
                let f = f.lock().expect("follower lock");
                match chronicle::sql::parse(sql) {
                    Ok(chronicle::sql::Statement::Select { target, filters }) => {
                        match f.db().select(&target, &filters) {
                            Ok(rows) => {
                                for r in &rows {
                                    println!("{r}");
                                }
                                println!("({} row(s))", rows.len());
                            }
                            Err(e) => println!("error: {e}"),
                        }
                    }
                    Ok(_) => println!("read-only follower: only SELECT runs here"),
                    Err(e) => println!("error: {e}"),
                }
            }
        }
    }
    let Some(addr) = promote_addr else {
        match replica.stop() {
            Ok(_) => println!("bye"),
            Err(e) => {
                eprintln!("ingest ended with error: {e}");
                std::process::exit(1);
            }
        }
        return;
    };
    // Failover: stop ingest, seal the replication state under a bumped
    // term (any stream the deposed leader still ships is answered with
    // the typed fencing error), and serve SQL sessions + WAL shipping
    // from this database. Retry clients find us through their candidate
    // address list.
    let db = match replica.promote() {
        Ok(db) => db,
        Err(e) => {
            eprintln!("promotion failed: {e}");
            std::process::exit(1);
        }
    };
    let term = db.term();
    let pipeline = ShardedPipeline::start(db, 64);
    let server = match Server::start(pipeline.handle(), &addr) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("promoted under term {term}, but cannot listen on {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "promoted: serving as leader under term {term} on {} — clients: \
         `repl connect {0}`, followers: `repl follow {0} <path>`",
        server.addr()
    );
    let handle = pipeline.handle();
    leader_console(&handle, &server);
    server.stop();
    pipeline.shutdown();
    println!("bye");
}

/// `repl connect <HOST:PORT[,...]> [session=N]` — a SQL shell over the
/// wire, against either a leader (full SQL) or a follower's read-only
/// listener (SELECT only). With `session=N` the shell runs through the
/// stamped [`RetryClient`] and survives failover by rotating through the
/// candidate addresses.
fn connect_main(args: &[String]) {
    let mut session: Option<u64> = None;
    let mut target: Option<String> = None;
    for arg in args {
        if let Some(s) = arg.strip_prefix("session=") {
            match s.parse::<u64>() {
                Ok(n) if n > 0 => session = Some(n),
                _ => {
                    eprintln!("invalid session id `{s}` (want session=N, N >= 1)");
                    std::process::exit(1);
                }
            }
        } else {
            target = Some(arg.clone());
        }
    }
    let Some(target) = target else {
        eprintln!("usage: repl connect <HOST:PORT[,HOST:PORT...]> [session=N]");
        std::process::exit(1);
    };
    match session {
        Some(session) => connect_stamped(&target, session),
        None => connect_plain(&target),
    }
}

fn print_wire_stats(s: &chronicle::net::WireStats) {
    println!(
        "appends: {}  tuples: {}  wal: {} records / {} bytes  \
         checkpoints: {}",
        s.appends, s.tuples_appended, s.wal_records, s.wal_bytes, s.checkpoints
    );
    println!(
        "net: {} sessions, {} frames in, {} frames out, \
         {} requests (p50 {} ns, p99 {} ns), {} WAL bytes shipped",
        s.net_sessions,
        s.net_frames_in,
        s.net_frames_out,
        s.net_requests,
        s.net_latency_p50_nanos,
        s.net_latency_p99_nanos,
        s.net_shipped_bytes
    );
    if let (Some(applied), Some(lag)) = (s.follower_applied_lsn, s.replication_lag) {
        println!("follower: applied lsn {applied}, {lag} record(s) behind");
    }
}

/// The sessionless shell: one plain connection, no stamps, no retries.
fn connect_plain(addr: &str) {
    if addr.contains(',') {
        eprintln!(
            "multiple candidate addresses need a session: \
             `repl connect {addr} session=N`"
        );
        std::process::exit(1);
    }
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "connected to {addr} ({} shard(s)) — SQL statements, or .stats / .quit",
        client.shards()
    );
    while let Some(line) = read_line("remote> ") {
        match line.as_str() {
            "" => continue,
            ".quit" | ".exit" => break,
            ".session" => println!(
                "no session: reconnect with `repl connect {addr} session=N` \
                 for stamped statements that survive retries and failover"
            ),
            ".stats" => match client.stats() {
                Ok(s) => print_wire_stats(&s),
                Err(e) => println!("error: {e}"),
            },
            sql => match client.sql(sql) {
                Ok(outcome) => print_remote(outcome),
                Err(e) => println!("error: {e}"),
            },
        }
    }
    client.goodbye();
    println!("bye");
}

/// The stamped shell: every statement carries `(session, seq)`, retries
/// back off and rotate through the candidate addresses on timeout,
/// overload, or fencing, and a stamp the leader already applied is
/// answered from its dedupe cache instead of re-executing.
fn connect_stamped(target: &str, session: u64) {
    let addrs: Vec<&str> = target
        .split(',')
        .map(str::trim)
        .filter(|a| !a.is_empty())
        .collect();
    if addrs.is_empty() {
        eprintln!("usage: repl connect <HOST:PORT[,HOST:PORT...]> [session=N]");
        std::process::exit(1);
    }
    let mut client = RetryClient::new(&addrs, session, RetryPolicy::default());
    println!(
        "session {session} against {} — SQL statements, or .session / .stats / .quit",
        addrs.join(", ")
    );
    while let Some(line) = read_line("remote> ") {
        match line.as_str() {
            "" => continue,
            ".quit" | ".exit" => break,
            ".session" => println!(
                "session {}: next seq {}, {} retr{}, {} reconnect(s), \
                 last leader term seen {}",
                client.session(),
                client.seq() + 1,
                client.retries(),
                if client.retries() == 1 { "y" } else { "ies" },
                client.reconnects(),
                client.last_term()
            ),
            ".stats" => match client.stats() {
                Ok(s) => print_wire_stats(&s),
                Err(e) => println!("error: {e}"),
            },
            sql => match client.sql(sql) {
                Ok(outcome) => print_remote(outcome),
                Err(e) => println!("error: {e}"),
            },
        }
    }
    client.goodbye();
    println!("bye");
}
