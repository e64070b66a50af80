//! The repo's end-to-end benchmark (see `README.md` beside this crate and
//! `BENCHMARK.json` at the repo root).
//!
//! `benchmark --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//! generates the workload's inputs from the seed, drives the engine through
//! its public entry points only, checks every view against a reference
//! fold, prints every metric by name, and ends with one JSON result line.

mod env;
mod gen;
mod measure;
mod rng;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use measure::{Metric, Report};
use workloads::{Entry, Outcome, Params, Spec, WORKLOADS};

/// Where a run keeps its engines and span files, relative to the checkout
/// root the command is started from.
const OUT_DIR: &str = "crates/benchmark/out";

/// The regression bound of every end-to-end metric, as recorded in
/// `BENCHMARK.json` (a unit test holds the two together);
/// `--check-agreement` holds two runs of the same code to it.
const BOUNDS: [(&str, f64); 4] = [
    ("append_tuples_per_s", 0.20),
    ("append_ack_p50_us", 0.25),
    ("query_p50_us", 0.20),
    ("setup_s", 0.25),
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    check_agreement: bool,
}

const USAGE: &str = "usage: benchmark [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--smoke] [--check-agreement]";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 18.0,
        trace: false,
        smoke: false,
        check_agreement: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--smoke" => a.smoke = true,
            "--check-agreement" => a.check_agreement = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    if a.smoke {
        a.seconds /= 200.0;
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs: Vec<&Spec> = match &args.workload {
        None => WORKLOADS.iter().collect(),
        Some(name) => match WORKLOADS.iter().find(|s| s.name == name) {
            Some(s) => vec![s],
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|s| s.name).collect();
                eprintln!("benchmark: no workload `{name}`; have {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    // Each run works in a directory of its own so concurrent runs (the
    // smoke test beside a manual run) cannot collide.
    let out = PathBuf::from(OUT_DIR).join(format!("run-{}", std::process::id()));
    if !std::path::Path::new("crates/benchmark/Cargo.toml").is_file() {
        eprintln!("benchmark: start it from the repository root (no crates/benchmark here)");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("benchmark: creating {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    let params = Params {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        out: out.clone(),
    };
    let ok = if args.check_agreement {
        check_agreement(&specs, &params)
    } else {
        specs.iter().all(|spec| {
            let r = if args.trace {
                trace::run(spec, &params)
            } else {
                untraced(spec, &params)
            };
            match r {
                Ok(report) => {
                    report.print(&header(spec, &params, args.trace));
                    report.correct
                }
                Err(e) => {
                    eprintln!("benchmark: {}: {e}", spec.name);
                    false
                }
            }
        })
    };
    workloads::remove_dir(&out);
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn header(spec: &Spec, p: &Params, trace: bool) -> String {
    format!(
        "workload {} seed {} seconds {} trace {} nproc {}",
        spec.name,
        p.seed,
        p.seconds,
        u8::from(trace),
        env::nproc()
    )
}

fn untraced(spec: &Spec, p: &Params) -> chronicle_types::Result<Report> {
    let Outcome {
        setup_s,
        setups,
        mut tally,
        stats: [before, after],
        mismatches,
        checks,
    } = workloads::run(spec, p)?;
    let (tps, windows) = tally.windows.median_per_s(tally.append_elapsed);
    let mut diagnostics = Vec::new();
    for (what, s) in [
        ("append_ack", &mut tally.acks),
        ("query", &mut tally.queries),
    ] {
        if let Some((pct, us)) = s.tail_us() {
            diagnostics.push(format!(
                "{what}_tail_us {us:.1} (p{pct:.4}, n={}; diagnostic, not gated)",
                s.len()
            ));
        }
    }
    diagnostics.push(format!(
        "tuples per 1-s window {:?}",
        tally.windows.counts()
    ));
    if spec.entry != Entry::Embed {
        // The hardware ceiling of a durable closed loop: every flush can
        // carry at most one batch per producer.
        let cal = env::calibrate(&p.out, p.calibrate_for());
        diagnostics.push(cal.describe());
        let ceiling = cal.fsync_per_s * spec.batch as f64 * workloads::SHARDS as f64;
        diagnostics.push(format!(
            "ceiling fsync_per_s x batch x shards = {ceiling:.0} tuples/s; achieved/ceiling = {:.3}",
            tps / ceiling
        ));
        let tuples = after.tuples_appended - before.tuples_appended;
        let flushes = after.wal_flushes - before.wal_flushes;
        diagnostics.push(format!(
            "tuples_per_flush {:.3} ({tuples} tuples / {flushes} flushes)",
            tuples as f64 / flushes.max(1) as f64
        ));
    }
    for m in &mismatches {
        diagnostics.push(format!("MISMATCH {m}"));
    }
    let metrics = vec![
        Metric::new(
            "append_tuples_per_s",
            tps,
            "1/s",
            format!(
                "{}; {} tuples in {:.2} s",
                if windows == 0 {
                    "total / elapsed (no full 1-s window)".to_string()
                } else {
                    format!("median of {windows} full 1-s windows")
                },
                tally.windows.total(),
                tally.append_elapsed.as_secs_f64()
            ),
        ),
        Metric::new(
            "append_ack_p50_us",
            tally.acks.p50_us(),
            "us",
            format!("n={} appends of {} rows", tally.acks.len(), spec.batch),
        ),
        Metric::new(
            "query_p50_us",
            tally.queries.p50_us(),
            "us",
            format!("n={} key lookups on v_acct", tally.queries.len()),
        ),
        Metric::new(
            "setup_s",
            setup_s,
            "s",
            format!("median of {setups} set-ups"),
        ),
    ];
    let failed = tally.failed + mismatches.len() as u64;
    Ok(Report {
        diagnostics,
        correct: failed == 0 && metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0),
        metrics,
        attempted: tally.attempted + checks,
        failed,
    })
}

/// Run the whole set twice back to back and hold the two to the
/// benchmark's own bounds; exact-count layer metrics must repeat exactly.
fn check_agreement(specs: &[&Spec], p: &Params) -> bool {
    let mut ok = true;
    println!(
        "{:<26} {:<34} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "run 1", "run 2", "diff", "bound"
    );
    for spec in specs {
        let pair = |f: fn(&Spec, &Params) -> chronicle_types::Result<Report>| {
            Ok::<_, chronicle_types::ChronicleError>([f(spec, p)?, f(spec, p)?])
        };
        let (plain, traced) = match (pair(untraced), pair(trace::run)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("benchmark: {}: {e}", spec.name);
                ok = false;
                continue;
            }
        };
        ok &= plain.iter().chain(&traced).all(|r| r.correct);
        let row = |name: &str, pair: &[Report; 2], bound: f64| {
            let (a, b) = (pair[0].value(name), pair[1].value(name));
            let diff = if a == b {
                0.0
            } else {
                (a - b).abs() / a.abs().min(b.abs())
            };
            let verdict = if diff <= bound { "" } else { "  DISAGREE" };
            println!(
                "{:<26} {:<34} {:>14.4} {:>14.4} {:>8.4} {:>6}{verdict}",
                spec.name, name, a, b, diff, bound
            );
            diff <= bound
        };
        for (name, bound) in BOUNDS {
            ok &= row(name, &plain, bound);
        }
        for name in trace::EXACT {
            ok &= row(name, &traced, 0.0);
        }
    }
    println!(
        "{}",
        if ok {
            "agreement: ok"
        } else {
            "agreement: FAILED"
        }
    );
    ok
}

#[cfg(test)]
mod tests {
    /// `BOUNDS` and `BENCHMARK.json` state the same bounds.
    #[test]
    fn bounds_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, bound) in super::BOUNDS {
            let entry = json
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .unwrap_or_else(|| panic!("BENCHMARK.json does not name {name}"));
            assert!(
                entry.contains(&format!("\"bound\": {bound}}}")),
                "{name}: BOUNDS says {bound}, BENCHMARK.json says {entry}"
            );
        }
    }
}
