//! Machine-readable benchmark results.
//!
//! Each `table*` binary writes, next to its human-readable stdout table, a
//! structured JSON results file (`results/<table>.json` by default,
//! `PH_RESULTS_DIR` overrides the directory).  The file carries a
//! `schema_version` discriminator, git-describable provenance, the budget
//! knobs in force, and one row per benchmark case with the full
//! [`SynthStats`](ph_core::SynthStats) payload — per-phase timings and SAT
//! counters included — so regressions can be diffed mechanically instead of
//! by eyeballing table text.  `check_schema` validates the shape.

use crate::RunResult;
use ph_obs::Json;
use std::path::{Path, PathBuf};
use std::time::{Duration, SystemTime};

/// Version stamp for the results-file shape.  Bump when a field is renamed
/// or removed (additions are backwards-compatible and don't require a bump).
pub const SCHEMA_VERSION: i64 = 1;

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a repository / without git.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The common header every results file starts with.
pub fn metadata(table: &str) -> Json {
    let unix = SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    Json::obj()
        .with("schema_version", SCHEMA_VERSION)
        .with("table", table)
        .with("git", git_describe())
        .with("generated_unix", unix)
}

/// One [`RunResult`] as a JSON object.  Successful and timed-out ParserHawk
/// runs carry their full `stats` payload (per-phase timings, SAT counters);
/// baseline runs have `stats: null`.
pub fn run_json(r: &RunResult, budget: Duration) -> Json {
    let mut o = Json::obj()
        .with("ok", r.ok())
        .with("timed_out", r.timed_out)
        .with("time_s", r.time.as_secs_f64())
        .with("budget_s", budget.as_secs_f64());
    o = match r.entries {
        Some(e) => o.with("entries", e),
        None => o.with("entries", Json::Null),
    };
    o = match r.stages {
        Some(s) => o.with("stages", s),
        None => o.with("stages", Json::Null),
    };
    o = match r.space_bits {
        Some(b) => o.with("space_bits", b),
        None => o.with("space_bits", Json::Null),
    };
    o = match &r.failure {
        Some(f) => o.with("failure", f.as_str()),
        None => o.with("failure", Json::Null),
    };
    o = match &r.stats {
        Some(s) => o.with("stats", s.to_json()),
        None => o.with("stats", Json::Null),
    };
    o
}

/// Writes `doc` to `<dir>/<name>.json` (pretty-printed, trailing newline)
/// and returns the path.  The directory is created on demand; binaries
/// pass [`Config::results_dir`](crate::Config::results_dir).
pub fn write_results(dir: &Path, name: &str, doc: &Json) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, format!("{}\n", doc.to_pretty()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_json_round_trips() {
        let r = RunResult {
            entries: Some(7),
            stages: None,
            space_bits: Some(42),
            time: Duration::from_millis(1500),
            timed_out: false,
            failure: None,
            stats: Some(ph_core::SynthStats::default()),
        };
        let j = run_json(&r, Duration::from_secs(30));
        let parsed = Json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.get("entries").and_then(Json::as_i64), Some(7));
        assert!(parsed
            .get("stages")
            .is_some_and(|v| matches!(v, Json::Null)));
        assert!(parsed.get("stats").and_then(|s| s.get("wall_s")).is_some());
    }

    #[test]
    fn metadata_has_schema_version() {
        let m = metadata("table3");
        assert_eq!(
            m.get("schema_version").and_then(Json::as_i64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(m.get("table").and_then(Json::as_str), Some("table3"));
    }
}
