//! The theorem-shape record (`BENCH_E*.json`).
//!
//! The text tables the `experiments` binary prints are for humans;
//! regression tooling wants numbers it can diff without parsing markdown.
//! This module serialises [`Figure`]s into a small hand-rolled JSON
//! writer (the tier-1 build is offline, so no serde) and writes one
//! `BENCH_<EXP>.json` file per experiment at the repository root. Every
//! field is a deterministic function of the code and the scale, so a
//! regenerated file is byte-equal to the committed one.
//!
//! Schema:
//!
//! ```json
//! {
//!   "experiment": "E14",
//!   "scale": 1,
//!   "figures": [
//!     { "title": "...", "x_label": "...", "y_label": "...",
//!       "notes": ["..."],
//!       "series": [ { "name": "...", "points": [[x, y], ...],
//!                     "growth": 1.02 } ] }
//!   ]
//! }
//! ```
//!
//! Non-finite numbers (a `growth()` of an empty series is NaN) render as
//! `null` so consumers never see bare `NaN` tokens.

use std::path::{Path, PathBuf};

use crate::harness::{Figure, Series};

/// A JSON value. Object keys keep insertion order — emission is
/// deterministic, so artifact diffs are meaningful.
#[derive(Debug, Clone)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (ordered key/value pairs).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Render with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line (point pairs read as
                // `[x, y]`); arrays with any nested structure break.
                let flat = items
                    .iter()
                    .all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                if flat {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        if i > 0 {
                            out.push_str(", ");
                        }
                        item.write(out, indent);
                    }
                    out.push(']');
                } else {
                    out.push('[');
                    for (i, item) in items.iter().enumerate() {
                        out.push_str(if i == 0 { "\n" } else { ",\n" });
                        pad(out, indent + 1);
                        item.write(out, indent + 1);
                    }
                    out.push('\n');
                    pad(out, indent);
                    out.push(']');
                }
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    pad(out, indent + 1);
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(v: f64, out: &mut String) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{}", v as i64));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialise one series: name, points, and the first-to-last growth
/// factor the shape assertions test.
fn series_json(s: &Series) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str(s.name.clone())),
        (
            "points".into(),
            Json::Arr(
                s.points
                    .iter()
                    .map(|&(x, y)| Json::Arr(vec![Json::Num(x), Json::Num(y)]))
                    .collect(),
            ),
        ),
        ("growth".into(), Json::Num(s.growth())),
    ])
}

/// Serialise one figure.
pub fn figure_json(f: &Figure) -> Json {
    Json::Obj(vec![
        ("title".into(), Json::Str(f.title.clone())),
        ("x_label".into(), Json::Str(f.x_label.clone())),
        ("y_label".into(), Json::Str(f.y_label.clone())),
        (
            "notes".into(),
            Json::Arr(f.notes.iter().map(|n| Json::Str(n.clone())).collect()),
        ),
        (
            "series".into(),
            Json::Arr(f.series.iter().map(series_json).collect()),
        ),
    ])
}

/// The repository root: two directories above this crate's manifest
/// (`crates/bench` → `crates` → the root).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the repo root")
        .to_path_buf()
}

/// Build the artifact document for one experiment run.
pub fn experiment_doc(experiment: &str, scale: u32, figures: &[Figure]) -> Json {
    Json::Obj(vec![
        ("experiment".into(), Json::Str(experiment.to_string())),
        ("scale".into(), Json::Num(scale as f64)),
        (
            "figures".into(),
            Json::Arr(figures.iter().map(figure_json).collect()),
        ),
    ])
}

/// Write `BENCH_<experiment>.json` at the repo root and return its path.
pub fn emit(experiment: &str, scale: u32, figures: &[Figure]) -> std::io::Result<PathBuf> {
    let doc = experiment_doc(experiment, scale, figures);
    let path = repo_root().join(format!("BENCH_{experiment}.json"));
    std::fs::write(&path, doc.render())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null\n");
        assert_eq!(Json::Bool(true).render(), "true\n");
        assert_eq!(Json::Num(3.0).render(), "3\n");
        assert_eq!(Json::Num(2.5).render(), "2.5\n");
        assert_eq!(Json::Num(f64::NAN).render(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null\n");
    }

    #[test]
    fn strings_escape() {
        let j = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(j.render(), "\"a\\\"b\\\\c\\nd\\u0001\"\n");
    }

    #[test]
    fn arrays_of_scalars_stay_flat() {
        let j = Json::Arr(vec![Json::Num(1.0), Json::Num(2.5)]);
        assert_eq!(j.render(), "[1, 2.5]\n");
    }

    #[test]
    fn figure_serialises_with_points_and_growth() {
        let mut f = Figure::new("E0 — demo", "n", "ns");
        let mut s = Series::new("flat");
        s.push(10.0, 5.0);
        s.push(100.0, 10.0);
        f.series.push(s);
        f.note("expected flat");
        let out = figure_json(&f).render();
        assert!(out.contains("\"title\": \"E0 — demo\""));
        assert!(out.contains("[10, 5]"));
        assert!(out.contains("[100, 10]"));
        assert!(out.contains("\"growth\": 2"));
        assert!(out.contains("\"expected flat\""));
    }

    #[test]
    fn empty_series_growth_is_null() {
        let mut f = Figure::new("E0", "n", "ns");
        f.series.push(Series::new("empty"));
        let out = figure_json(&f).render();
        assert!(out.contains("\"growth\": null"));
        assert!(out.contains("\"points\": []"));
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }

    #[test]
    fn experiment_doc_carries_metadata() {
        let out = experiment_doc("E99", 0, &[]).render();
        assert!(out.contains("\"experiment\": \"E99\""));
        assert!(out.contains("\"scale\": 0"));
        assert!(out.contains("\"figures\": []"));
    }
}
