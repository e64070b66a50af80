//! Tier-visible deterministic-simulation gate: a fixed seed set over both
//! topologies, run on every `cargo test`.
//!
//! Each seed drives a full schedule — DDL, appends, relation DML, view
//! creation, checkpoints, armed crashes, clean reopens — against a
//! durable database over the in-memory fault-injecting [`SimFs`], and
//! verifies every recovery byte-for-byte against an in-memory oracle.
//! The deep sweeps live in `examples/sim.rs` (driven by `scripts/verify.sh`);
//! this suite pins a small deterministic slice of them into tier-1 so a
//! recovery regression fails `cargo test` with the reproducing seed in
//! the panic message.
//!
//! Reproducing a failure printed by this suite:
//!
//! ```text
//! SIM_TRACE=1 cargo run --release --example sim -- \
//!     --base <seed> --seeds 1 --shards <0 or 2> --ops 120
//! ```

use chronicle::sim::{
    run_failover_seed, run_replication_seed, run_seed, run_seed_bit_rot, run_seed_bit_rot_sharded,
    run_seed_sharded, NetReport,
};
use chronicle::simkit::ScheduleConfig;

fn cfg() -> ScheduleConfig {
    ScheduleConfig {
        ops: 120,
        ..ScheduleConfig::default()
    }
}

/// The pinned seed block. Nothing is special about these values — they
/// are simply a contiguous range so a reader can line them up with a
/// `--base 0 --seeds 24` sweep of the example runner.
const SEEDS: std::ops::Range<u64> = 0..24;

#[test]
fn single_topology_fixed_seeds_recover_clean() {
    for seed in SEEDS {
        let report = run_seed(seed, &cfg())
            .unwrap_or_else(|f| panic!("single-topology simulation failed: {f}"));
        assert!(
            report.recoveries >= 1,
            "seed {seed}: every schedule ends in a verified recovery"
        );
    }
}

#[test]
fn sharded_topology_fixed_seeds_recover_clean() {
    for seed in SEEDS {
        let report = run_seed_sharded(seed, 2, &cfg())
            .unwrap_or_else(|f| panic!("sharded simulation failed: {f}"));
        assert!(
            report.recoveries >= 1,
            "seed {seed}: every schedule ends in a verified recovery"
        );
    }
}

#[test]
fn reports_are_reproducible_across_topologies() {
    // A run is a pure function of (seed, config, topology): the report —
    // acked-statement count, crash count, recovery count — must match
    // exactly on replay. This is the property the whole seed-reproduction
    // workflow rests on.
    for seed in [3, 11, 19] {
        assert_eq!(run_seed(seed, &cfg()), run_seed(seed, &cfg()));
        assert_eq!(
            run_seed_sharded(seed, 3, &cfg()),
            run_seed_sharded(seed, 3, &cfg())
        );
    }
}

#[test]
fn simulation_exercises_the_interesting_paths() {
    // Guard against the schedule generator quietly degenerating (e.g. a
    // weight change that stops producing crashes): across the pinned
    // block, runs must collectively ack statements, suffer crashes,
    // recover, and checkpoint.
    let mut acked = 0;
    let mut crashes = 0;
    let mut checkpoints = 0;
    for seed in SEEDS {
        let r = run_seed(seed, &cfg()).expect("pinned seeds run clean");
        acked += r.sql_acked;
        crashes += r.crashes;
        checkpoints += r.checkpoints;
    }
    assert!(acked > 100, "schedules ack real work (got {acked})");
    assert!(crashes > 10, "schedules inject crashes (got {crashes})");
    assert!(checkpoints > 5, "schedules checkpoint (got {checkpoints})");
}

#[test]
fn sharded_seeds_exercise_group_moves() {
    // Heavy-light placement's move primitive must actually fire inside
    // the crash sweeps: across the pinned block, sharded runs must
    // acknowledge MOVE GROUP pseudo-statements (the driver verifies each
    // against the oracle, asserts single ownership after every recovery,
    // and adopts crash-interrupted moves that rolled forward). Single
    // topology must reject every one.
    let mut moves = 0;
    for seed in SEEDS {
        let sharded = run_seed_sharded(seed, 3, &cfg())
            .unwrap_or_else(|f| panic!("sharded simulation failed: {f}"));
        moves += sharded.moves;
        let single = run_seed(seed, &cfg()).expect("pinned seeds run clean");
        assert_eq!(
            single.moves, 0,
            "seed {seed}: single topology acknowledged a group move"
        );
    }
    assert!(moves > 5, "schedules apply group moves (got {moves})");
}

/// A pinned slice of the bit-rot sweeps (`--bit-rot` in the example
/// runner): every crash also flips seeded bytes across the surviving
/// files, the database reopens under `RecoveryPolicy::Salvage`, and the
/// driver proves each open landed on a prefix of the acknowledged history
/// with the dropped suffix exactly enumerated by the salvage report.
#[test]
fn single_topology_bit_rot_seeds_salvage_clean() {
    let mut flips = 0;
    for seed in SEEDS {
        let report = run_seed_bit_rot(seed, &cfg())
            .unwrap_or_else(|f| panic!("single-topology bit-rot simulation failed: {f}"));
        assert!(report.recoveries >= 1, "seed {seed}: recovery exercised");
        flips += report.bit_rot_flips;
    }
    assert!(
        flips > 50,
        "the sweep must actually rot bytes (got {flips})"
    );
}

#[test]
fn sharded_topology_bit_rot_seeds_salvage_clean() {
    let mut flips = 0;
    for seed in SEEDS {
        let report = run_seed_bit_rot_sharded(seed, 2, &cfg())
            .unwrap_or_else(|f| panic!("sharded bit-rot simulation failed: {f}"));
        assert!(report.recoveries >= 1, "seed {seed}: recovery exercised");
        flips += report.bit_rot_flips;
    }
    assert!(
        flips > 50,
        "the sweep must actually rot bytes (got {flips})"
    );
}

/// A pinned slice of the failover sweeps (`--failover` in the example
/// runner): each seed kills the leader mid-stream, promotes the follower
/// under a fenced term, and lets sessioned clients retry — asserting
/// every acknowledged stamp survives promotion, no stamp ever applies
/// twice, stale-term streams are refused with a typed fencing error, and
/// the final state matches a never-crashed oracle byte-for-byte.
///
/// Reproduce a failure with:
///
/// ```text
/// cargo run --release --example sim -- \
///     --base <seed> --seeds 1 --shards <1 or 2> --ops 120 --failover
/// ```
#[test]
fn failover_fixed_seeds_promote_clean() {
    let mut totals = NetReport::default();
    for seed in SEEDS {
        let shards = if seed % 2 == 0 { 1 } else { 2 };
        let r = run_failover_seed(seed, shards, &cfg())
            .unwrap_or_else(|f| panic!("failover simulation failed: {f}"));
        assert!(
            r.promotions >= 1,
            "seed {seed}: every schedule promotes at least once"
        );
        assert_eq!(
            r.fencing_probes, r.promotions,
            "seed {seed}: every promotion fences the deposed term"
        );
        totals += r;
    }
    // The `--failover --base 0 --seeds 24 --shards 2 --ops 120` totals:
    // any change to the failover schedules shows up here.
    assert_eq!(
        totals,
        NetReport {
            acked: 1814,
            promotions: 165,
            fencing_probes: 165,
            dedupe_retries: 220,
            partitions: 212,
            heartbeat_duplicates: 241,
            connection_cuts: 249,
            follower_kills: 158,
            pump_cycles: 18_286,
            bytes_shipped: 1_060_519,
            bytes_lost_in_flight: 87_695,
            ..NetReport::default()
        }
    );
}

/// The replication twin of the failover slice (`--replication` in the
/// example runner): schedule SQL acknowledged on leader durability, the
/// follower a legal prefix after every kill and converged at the end.
#[test]
fn replication_fixed_seeds_converge_clean() {
    let mut totals = NetReport::default();
    for seed in SEEDS {
        let shards = if seed % 2 == 0 { 1 } else { 2 };
        totals += run_replication_seed(seed, shards, &cfg())
            .unwrap_or_else(|f| panic!("replication simulation failed: {f}"));
    }
    // The `--replication --base 0 --seeds 24 --shards 2 --ops 120` totals.
    assert_eq!(
        totals,
        NetReport {
            acked: 2519,
            pump_cycles: 7070,
            connection_cuts: 259,
            follower_kills: 260,
            leader_kills: 251,
            bytes_shipped: 452_380,
            bytes_lost_in_flight: 60_497,
            ..NetReport::default()
        }
    );
}
