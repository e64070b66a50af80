//! Seeded deterministic-simulation runner (the `verify.sh` gate and the
//! seed-reproduction workflow).
//!
//! ```text
//! cargo run --release --example sim -- [--base N] [--seeds N]
//!     [--shards N] [--ops N] [--budget-ms N] [--bit-rot] [--replication]
//!     [--failover]
//! ```
//!
//! Runs `--seeds` schedules starting at seed `--base`, alternating the
//! single-database and sharded topologies, until done or the time budget
//! is spent. With `--bit-rot` every power cut also flips bits in durable
//! files and recovery runs under the `Salvage` policy (with a Strict
//! fails-loudly probe on a fork of each rotted disk). With `--replication`
//! each seed instead drives a leader/follower pair over the simulated
//! wire, with seeded connection cuts and power cuts on either side. With
//! `--failover` each seed kills the leader mid-stream and promotes the
//! follower under a fenced term while sessioned clients retry — asserting
//! every acked statement survives, nothing applies twice, and the final
//! state matches a never-crashed oracle. On a failure it prints the one
//! seed that reproduces the run and exits nonzero; re-running with
//! `--base <seed> --seeds 1` (plus the same `--shards`/`--ops`/mode flag)
//! replays it deterministically.

use std::process::ExitCode;
use std::time::Instant;

use chronicle::sim::{
    run_failover_seed, run_replication_seed, run_seed, run_seed_bit_rot, run_seed_bit_rot_sharded,
    run_seed_sharded, NetReport, SimReport,
};
use chronicle::simkit::ScheduleConfig;

fn main() -> ExitCode {
    let mut base: u64 = 0;
    let mut seeds: u64 = 16;
    let mut shards: usize = 2;
    let mut ops: usize = 120;
    let mut budget_ms: u64 = u64::MAX;
    let mut bit_rot = false;
    let mut replication = false;
    let mut failover = false;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut take = |what: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{what} needs a value"))
        };
        match flag.as_str() {
            "--base" => base = take("--base").parse().expect("--base: u64"),
            "--seeds" => seeds = take("--seeds").parse().expect("--seeds: u64"),
            "--shards" => shards = take("--shards").parse().expect("--shards: usize"),
            "--ops" => ops = take("--ops").parse().expect("--ops: usize"),
            "--budget-ms" => budget_ms = take("--budget-ms").parse().expect("--budget-ms: u64"),
            "--bit-rot" => bit_rot = true,
            "--replication" => replication = true,
            "--failover" => failover = true,
            other => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
        }
    }

    let cfg = ScheduleConfig {
        ops,
        ..ScheduleConfig::default()
    };
    let start = Instant::now();
    let mode = if failover {
        " --failover"
    } else if replication {
        " --replication"
    } else if bit_rot {
        " --bit-rot"
    } else {
        ""
    };

    let mut net = NetReport::default();
    let mut totals = SimReport::default();
    let mut halted = 0u64;
    let mut ran = 0u64;
    for seed in base..base.saturating_add(seeds) {
        if start.elapsed().as_millis() as u64 >= budget_ms {
            break;
        }
        // Even seeds drive the single-shard topology, odd seeds the
        // sharded one, so one sweep covers both paths.
        let single = shards == 0 || seed % 2 == 0;
        let n = if single { 1 } else { shards };
        let result = if failover {
            run_failover_seed(seed, n, &cfg).map(|r| net += r)
        } else if replication {
            run_replication_seed(seed, n, &cfg).map(|r| net += r)
        } else {
            match (single, bit_rot) {
                (true, false) => run_seed(seed, &cfg),
                (false, false) => run_seed_sharded(seed, shards, &cfg),
                (true, true) => run_seed_bit_rot(seed, &cfg),
                (false, true) => run_seed_bit_rot_sharded(seed, shards, &cfg),
            }
            .map(|r| {
                totals.sql_acked += r.sql_acked;
                totals.crashes += r.crashes;
                totals.recoveries += r.recoveries;
                totals.checkpoints += r.checkpoints;
                totals.moves += r.moves;
                totals.bit_rot_flips += r.bit_rot_flips;
                totals.salvaged_opens += r.salvaged_opens;
                totals.acked_lost += r.acked_lost;
                halted += u64::from(r.halted_on_divergence);
            })
        };
        if let Err(f) = result {
            eprintln!("{f}");
            eprintln!(
                "reproduce: cargo run --release --example sim -- \
                 --base {} --seeds 1 --shards {shards} --ops {ops}{mode}",
                f.seed
            );
            return ExitCode::FAILURE;
        }
        ran += 1;
    }

    if failover {
        println!(
            "failover sim ok: {ran} seeds ({} acked stamps, {} promotions, \
             {} fencing probes, {} dedupe retries, {} partitions, {} heartbeat dups, \
             {} cuts, {} follower kills, {} pump cycles, {} bytes shipped, \
             {} bytes lost in flight) in {:?}",
            net.acked,
            net.promotions,
            net.fencing_probes,
            net.dedupe_retries,
            net.partitions,
            net.heartbeat_duplicates,
            net.connection_cuts,
            net.follower_kills,
            net.pump_cycles,
            net.bytes_shipped,
            net.bytes_lost_in_flight,
            start.elapsed()
        );
    } else if replication {
        println!(
            "replication sim ok: {ran} seeds ({} acked stmts, {} pump cycles, \
             {} cuts, {} follower kills, {} leader kills, {} bytes shipped, \
             {} bytes lost in flight) in {:?}",
            net.acked,
            net.pump_cycles,
            net.connection_cuts,
            net.follower_kills,
            net.leader_kills,
            net.bytes_shipped,
            net.bytes_lost_in_flight,
            start.elapsed()
        );
    } else {
        print!(
            "sim ok: {ran} seeds ({} acked stmts, {} crashes, {} recoveries, {} checkpoints, \
             {} group moves",
            totals.sql_acked, totals.crashes, totals.recoveries, totals.checkpoints, totals.moves,
        );
        if bit_rot {
            print!(
                ", {} bits flipped, {} salvaged opens, {} acked stmts confessed lost, \
                 {halted} halted",
                totals.bit_rot_flips, totals.salvaged_opens, totals.acked_lost,
            );
        }
        println!(") in {:?}", start.elapsed());
    }
    ExitCode::SUCCESS
}
