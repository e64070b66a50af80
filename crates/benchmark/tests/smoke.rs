//! Runs every workload at 1/200 size through the real binary, untraced and
//! traced, and holds the output to `BENCHMARK.json`: every workload and
//! every metric named there is emitted, finite, with its unit, and no
//! operation failed. An engine API change that breaks the driver fails
//! here, not in the next performance PR.

use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `(name, unit)` of every object in the array `section` of BENCHMARK.json
/// (`unit` empty for workloads). The file is flat enough that scanning for
/// the quoted keys is exact; the workspace has no JSON parser.
fn named(json: &str, section: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{section}`"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |obj: &str, key: &str| {
        obj.split(&format!("\"{key}\": \""))
            .nth(1)
            .map(|rest| rest[..rest.find('"').expect("string closes")].to_string())
    };
    body.split('{')
        .skip(1)
        .map(|obj| {
            (
                field(obj, "name").expect("every entry has a name"),
                field(obj, "unit").unwrap_or_default(),
            )
        })
        .collect()
}

/// The number after `"<name>": {"value": ` in a result line, and its unit.
fn metric(line: &str, name: &str) -> Option<(f64, String)> {
    let rest = line.split(&format!("\"{name}\": {{\"value\": ")).nth(1)?;
    let value = rest[..rest.find(',')?].parse().ok()?;
    let rest = rest.split("\"unit\": \"").nth(1)?;
    Some((value, rest[..rest.find('"')?].to_string()))
}

#[test]
fn every_workload_and_metric_in_benchmark_json_is_emitted() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads: Vec<String> = named(&json, "workloads")
        .into_iter()
        .map(|(name, _)| name)
        .collect();
    assert!(workloads.len() >= 2, "workloads parsed: {workloads:?}");
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let wanted = named(&json, section);
        assert!(!wanted.is_empty());
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(["--smoke", "--seed", "7", "--trace", trace])
            .current_dir(repo_root())
            .output()
            .expect("benchmark binary runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "--trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        // One section per workload: a `workload <name> …` header, then the
        // result line.
        let mut current = None;
        let mut seen = Vec::new();
        for line in stdout.lines() {
            if let Some(rest) = line.strip_prefix("workload ") {
                current = rest.split(' ').next().map(str::to_string);
            } else if line.starts_with("{\"correct\"") {
                let name = current.take().expect("result line follows a header");
                assert!(line.contains("\"correct\": true"), "{name}: {line}");
                assert!(line.contains("\"failed\": 0,"), "{name}: {line}");
                for (m, unit) in &wanted {
                    let (v, u) = metric(line, m)
                        .unwrap_or_else(|| panic!("{name} --trace {trace}: no metric {m}"));
                    assert!(v.is_finite(), "{name}: {m} = {v}");
                    assert_eq!(&u, unit, "{name}: unit of {m}");
                }
                assert_eq!(
                    line.matches("\"value\"").count(),
                    wanted.len(),
                    "{name}: metrics not in BENCHMARK.json `{section}`: {line}"
                );
                seen.push(name);
            }
        }
        assert_eq!(seen, workloads, "--trace {trace}");
    }
}
