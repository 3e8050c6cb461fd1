//! Exact quality/status gate between two benchmark results files.
//!
//! ```text
//! bench_diff old.json new.json    # text report; exit 1 on regression
//! ```
//!
//! Compares two `results/table*.json` documents run-by-run (see
//! `ph_bench::diff` for the gate semantics): entries/stages must not grow,
//! and a run that was `ok` must not fail at the same budget.  Wall times
//! are not compared; timing regressions go through `ledger compare`.
//! Exit status: 0 pass (warnings included), 1 regression, 2 usage or I/O
//! error.

use ph_bench::diff::diff;
use ph_obs::Json;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!("usage: bench_diff <old.json> <new.json>");
    std::process::exit(2);
}

fn load(path: &str) -> Json {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("bench_diff: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match Json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("bench_diff: {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn main() -> ExitCode {
    // Nothing here is configurable, but a stray `PH_*` name still fails
    // closed like in every other binary.
    ph_bench::Config::from_env();
    let mut paths = Vec::new();
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--help" | "-h" => usage(),
            _ => paths.push(a),
        }
    }
    let [old_path, new_path] = &paths[..] else {
        usage()
    };

    let report = diff(&load(old_path), &load(new_path));
    print!("{}", report.render());

    if report.regressed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
