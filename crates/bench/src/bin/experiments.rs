//! Regenerate every derived figure of the theorem-shape record.
//!
//! Usage: `cargo run -p chronicle-bench --release --bin experiments [quick] [json] [E..]`
//! — prints every figure as the text table EXPERIMENTS.md records;
//! `quick` runs the reduced (scale 0) sweeps; `json` skips the tables and
//! instead writes one `BENCH_<E..>.json` record per experiment at the repo
//! root. Naming experiments (e.g. `json E19`) restricts the run to them.
//! Every figure is deterministic, so a regenerated record is byte-equal
//! to the committed one.

use chronicle_bench::experiments::ALL;
use chronicle_bench::json;

fn main() {
    let quick = std::env::args().any(|a| a == "quick");
    let json_mode = std::env::args().any(|a| a == "json");
    let only: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a.starts_with('E'))
        .collect();
    let scale: u32 = if quick { 0 } else { 1 };
    if !json_mode {
        println!("# Chronicle data model — derived experiments (scale {scale})\n");
    }
    for (id, run) in ALL {
        if !only.is_empty() && !only.iter().any(|o| o == id) {
            continue;
        }
        eprintln!("[{id}]...");
        let figures = run(scale);
        if json_mode {
            let path = json::emit(id, scale, &figures)
                .unwrap_or_else(|e| panic!("write BENCH_{id}.json: {e}"));
            println!("wrote {}", path.display());
        } else {
            for f in &figures {
                println!("{}", f.render());
            }
        }
    }
}
