//! Determinism of the benchmark pipeline.
//!
//! Two identical `table3` runs in the default configuration must produce
//! byte-identical `results/table3.json` once timing and provenance fields
//! are scrubbed — wall-clock durations and the generation stamp are the
//! only things allowed to differ between runs.

use ph_obs::Json;
use std::path::PathBuf;
use std::process::Command;

/// Fields that legitimately vary between identical runs: wall-clock
/// durations (timing) and the file header's generation stamp (provenance).
const VOLATILE_KEYS: &[&str] = &[
    "time_s",
    "synth_time_s",
    "verify_time_s",
    "shrink_time_s",
    "wall_s",
    // Per-query latency histograms are wall-clock distributions (the
    // verify_conflicts histogram is deterministic and stays checked).
    "synth_query_ns",
    "verify_query_ns",
    "shrink_query_ns",
    // Derived from wall-clock ratios, so timing too.
    "geomean_speedup",
    "generated_unix",
    "git",
];

/// Rebuilds the document without the volatile fields, everywhere.  A
/// timed-out run's whole `stats` payload is volatile — the deadline trips
/// on wall clock, so the counters freeze at a run-dependent point — while
/// its verdict (`timed_out: true`, null outputs) must still reproduce.
fn scrub(v: &Json) -> Json {
    if let Some(fields) = v.as_obj() {
        let timed_out = fields
            .iter()
            .any(|(k, c)| k == "timed_out" && *c == Json::Bool(true));
        let mut o = Json::obj();
        for (k, child) in fields {
            if VOLATILE_KEYS.contains(&k.as_str()) || (timed_out && k == "stats") {
                continue;
            }
            o = o.with(k, scrub(child));
        }
        o
    } else if let Some(items) = v.as_arr() {
        Json::Arr(items.iter().map(scrub).collect())
    } else {
        v.clone()
    }
}

fn run_table3(dir: &PathBuf) -> Json {
    std::fs::create_dir_all(dir).unwrap();
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_table3"));
    cmd.env("PH_RESULTS_DIR", dir)
        .env("PH_FILTER", "Parse Ethernet - R3")
        .env("PH_TIMEOUT_SECS", "60")
        // The naive encoding times out on every budget we can afford here;
        // keep that leg short — its stats are scrubbed as volatile anyway.
        .env("PH_ORIG_TIMEOUT_SECS", "1")
        .env_remove("PH_TRACE");
    let out = cmd.output().expect("table3 binary runs");
    assert!(
        out.status.success(),
        "table3 failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join("table3.json")).expect("results file written");
    Json::parse(&text).expect("results file parses")
}

#[test]
fn table3_is_deterministic() {
    let base = std::env::temp_dir().join(format!("ph-determinism-{}", std::process::id()));
    let a = run_table3(&base.join("a"));
    let b = run_table3(&base.join("b"));
    let _ = std::fs::remove_dir_all(&base);
    assert_eq!(
        scrub(&a).to_pretty(),
        scrub(&b).to_pretty(),
        "two identical table3 runs diverged beyond timing/provenance fields"
    );
}
