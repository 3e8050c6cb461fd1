//! Validates machine-readable benchmark artifacts.
//!
//! ```text
//! cargo run -p ph-bench --bin check_schema -- results/table3.json trace.jsonl
//! ```
//!
//! Two file kinds, told apart by extension:
//!
//! * `.json` — a results document: must parse, carry `schema_version` 1,
//!   a `table` name, git provenance, and a shape matching that table.
//!   `table*` documents need a `rows` array whose embedded `stats`
//!   objects decode as a `SynthStats`: the required keys are the
//!   declaration's, so a new counter is required as soon as it is
//!   declared; `profile` documents (from `trace_prof`) need the span
//!   table; `bench_diff` documents need the per-run comparison rows (key,
//!   verdict, notes), the unmatched runs and the overall verdict.  A
//!   `.json` file carrying a top-level `cache_version` instead is a
//!   `ph-svc` result-cache entry (`$PH_CACHE_DIR/<key>.json`): its
//!   program and stats must decode with the decoders a cache hit runs.
//! * `.jsonl` — a `PH_TRACE` trace: it must fold through
//!   `ph_obs::profile::Profiler` without a warning — every line one JSON
//!   event of a known kind with its fields and a `t_ns` stamp, stamps
//!   monotone non-decreasing, every exit matching an open enter of the
//!   same name, nothing left open at the end.
//!
//! Exits non-zero with a per-file diagnostic on the first violation, so CI
//! can gate on it.

use ph_bench::report::SCHEMA_VERSION;
use ph_core::SynthStats;
use ph_obs::profile::profile_str;
use ph_obs::{Histogram, Json, StatValue};
use ph_svc::codec::program_from_json;
use ph_svc::CACHE_FORMAT_VERSION;

fn fail(file: &str, msg: String) -> ! {
    eprintln!("check_schema: {file}: {msg}");
    std::process::exit(1);
}

/// Declared stats keys that postdate the committed baselines
/// (`results/table{3,4,5}.json`), so results documents may omit them.
/// Delete this list when the baselines are regenerated.
const NOT_IN_BASELINES: &[&str] = &["arena_gcs", "arena_bytes", "cache_hits", "cache_misses"];

/// Sets each absent `keys` entry to zero in `v` and every object below it.
fn fill_zero(v: &mut Json, keys: &[&str]) {
    if let Json::Obj(fields) = v {
        for (_, child) in fields.iter_mut() {
            fill_zero(child, keys);
        }
        for key in keys {
            if v.get(key).is_none() {
                v.set(key, 0u64);
            }
        }
    }
}

/// Walks the document and validates every object that appears under a
/// `stats` key by decoding it as a `SynthStats` (the `exempt` keys may be
/// absent).  Returns how many stats payloads were seen.
fn check_stats(file: &str, v: &Json, exempt: &[&str]) -> usize {
    let mut seen = 0;
    if let Some(fields) = v.as_obj() {
        for (k, child) in fields {
            if k == "stats" && child.as_obj().is_some() {
                seen += 1;
                let mut payload = child.clone();
                fill_zero(&mut payload, exempt);
                if let Err(e) = SynthStats::from_json(&payload) {
                    fail(file, format!("stats payload: {e}"));
                }
            }
            seen += check_stats(file, child, exempt);
        }
    } else if let Some(items) = v.as_arr() {
        for item in items {
            seen += check_stats(file, item, exempt);
        }
    }
    seen
}

/// Required keys of each divergence report (`Divergence::to_json`): string
/// fields, integer fields, and state-path arrays.
const DIVERGENCE_STR_KEYS: &[&str] = &[
    "subject",
    "generator",
    "input",
    "kind",
    "spec_status",
    "impl_status",
];
const DIVERGENCE_INT_KEYS: &[&str] = &["input_bits", "shrink_steps"];
const DIVERGENCE_ARR_KEYS: &[&str] = &["spec_path", "impl_path"];

/// Walks the document and validates every object inside an array that
/// appears under a `divergences` key (the fuzzing oracle's reports).
/// Returns how many divergence payloads were seen.
fn check_divergences(file: &str, v: &Json) -> usize {
    let mut seen = 0;
    if let Some(fields) = v.as_obj() {
        for (k, child) in fields {
            // Counter payloads carry an integer `divergences` count; only
            // the array form holds the structured reports.
            if k == "divergences" && child.as_arr().is_some() {
                let items = child.as_arr().unwrap();
                for (i, d) in items.iter().enumerate() {
                    seen += 1;
                    for key in DIVERGENCE_STR_KEYS {
                        if d.get(key).and_then(Json::as_str).is_none() {
                            fail(file, format!("divergence {i} missing string key {key:?}"));
                        }
                    }
                    for key in DIVERGENCE_INT_KEYS {
                        if d.get(key).and_then(Json::as_i64).is_none() {
                            fail(file, format!("divergence {i} missing integer key {key:?}"));
                        }
                    }
                    for key in DIVERGENCE_ARR_KEYS {
                        if d.get(key).and_then(Json::as_arr).is_none() {
                            fail(file, format!("divergence {i} missing array key {key:?}"));
                        }
                    }
                    if d.get("first_diff_field").is_none() {
                        fail(
                            file,
                            format!("divergence {i} missing key \"first_diff_field\""),
                        );
                    }
                }
            }
            seen += check_divergences(file, child);
        }
    } else if let Some(items) = v.as_arr() {
        for item in items {
            seen += check_divergences(file, item);
        }
    }
    seen
}

/// Validates a `trace_prof` document (`results/profile.json`).
fn check_profile(file: &str, doc: &Json) {
    let Some(p) = doc.get("profile") else {
        fail(file, "missing object field \"profile\"".into());
    };
    for key in ["lines", "events", "warning_count"] {
        if p.get(key).and_then(Json::as_i64).is_none() {
            fail(file, format!("profile.{key} missing or not an integer"));
        }
    }
    if p.get("warnings").and_then(Json::as_arr).is_none() {
        fail(file, "profile.warnings missing or not an array".into());
    }
    let Some(spans) = p.get("spans").and_then(Json::as_arr) else {
        fail(file, "profile.spans missing or not an array".into());
    };
    for (i, s) in spans.iter().enumerate() {
        if s.get("name").and_then(Json::as_str).is_none() {
            fail(file, format!("profile.spans[{i}] has no \"name\""));
        }
        for key in ["calls", "total_ns", "self_ns"] {
            if s.get(key).and_then(Json::as_i64).is_none() {
                fail(
                    file,
                    format!("profile.spans[{i}].{key} missing or not an integer"),
                );
            }
        }
        let Some(dur) = s.get("dur") else {
            fail(file, format!("profile.spans[{i}] has no \"dur\""));
        };
        if let Err(e) = Histogram::from_json(dur) {
            fail(file, format!("profile.spans[{i}].dur: {e}"));
        }
    }
    for key in ["counters", "gauges"] {
        if p.get(key).and_then(Json::as_obj).is_none() {
            fail(file, format!("profile.{key} missing or not an object"));
        }
    }
    println!(
        "check_schema: {file}: ok (profile: {} span names)",
        spans.len()
    );
}

/// Validates a `bench_diff` document (`results/bench_diff.json`).
fn check_bench_diff(file: &str, doc: &Json) {
    let Some(d) = doc.get("diff") else {
        fail(file, "missing object field \"diff\"".into());
    };
    let Some(rows) = d.get("rows").and_then(Json::as_arr) else {
        fail(file, "diff.rows missing or not an array".into());
    };
    for (i, r) in rows.iter().enumerate() {
        for key in ["key", "verdict"] {
            if r.get(key).and_then(Json::as_str).is_none() {
                fail(
                    file,
                    format!("diff.rows[{i}].{key} missing or not a string"),
                );
            }
        }
        if r.get("notes").and_then(Json::as_arr).is_none() {
            fail(
                file,
                format!("diff.rows[{i}].notes missing or not an array"),
            );
        }
    }
    if d.get("unmatched").and_then(Json::as_arr).is_none() {
        fail(file, "diff.unmatched missing or not an array".into());
    }
    let Some(verdict) = d.get("verdict").and_then(Json::as_str) else {
        fail(file, "diff.verdict missing or not a string".into());
    };
    if !["ok", "warning", "regression"].contains(&verdict) {
        fail(
            file,
            format!("diff.verdict {verdict:?} is not a known verdict"),
        );
    }
    println!(
        "check_schema: {file}: ok (bench_diff: {} runs compared, verdict {verdict})",
        rows.len()
    );
}

/// Validates one `ph-svc` result-cache entry (`$PH_CACHE_DIR/<key>.json`),
/// dispatching on its `cache_version` field.
fn check_cache_entry(file: &str, doc: &Json) {
    match doc.get("cache_version").and_then(Json::as_i64) {
        Some(v) if v == i64::from(CACHE_FORMAT_VERSION) => {}
        Some(v) => fail(
            file,
            format!("cache_version {v}, expected {CACHE_FORMAT_VERSION}"),
        ),
        None => fail(file, "cache_version is not an integer".into()),
    }
    let Some(key) = doc.get("key").and_then(Json::as_str) else {
        fail(file, "missing string field \"key\"".into());
    };
    if key.len() != 64 || !key.bytes().all(|b| b.is_ascii_hexdigit()) {
        fail(file, format!("key {key:?} is not a 64-char hex digest"));
    }
    if doc.get("created_unix").and_then(Json::as_i64).is_none() {
        fail(file, "missing integer field \"created_unix\"".into());
    }
    let Some(p) = doc.get("provenance") else {
        fail(file, "missing object field \"provenance\"".into());
    };
    for k in ["tool", "crate_version", "device_name"] {
        if p.get(k).and_then(Json::as_str).is_none() {
            fail(file, format!("provenance.{k} missing or not a string"));
        }
    }
    // The decoders a cache hit runs.
    let Some(program) = doc.get("program") else {
        fail(file, "missing field \"program\"".into());
    };
    if let Err(e) = program_from_json(program) {
        fail(file, format!("program: {e}"));
    }
    let stats = check_stats(file, doc, &[]);
    if stats != 1 {
        fail(
            file,
            format!("expected exactly 1 stats payload, found {stats}"),
        );
    }
    println!(
        "check_schema: {file}: ok (cache entry, key {}…)",
        &key[..12]
    );
}

fn check_results(file: &str, text: &str) {
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => fail(file, format!("not valid JSON: {e}")),
    };
    // Result-cache entries live outside the report schema: they carry a
    // `cache_version` of their own instead of `schema_version`.
    if doc.get("cache_version").is_some() {
        return check_cache_entry(file, &doc);
    }
    match doc.get("schema_version").and_then(Json::as_i64) {
        Some(v) if v == SCHEMA_VERSION => {}
        Some(v) => fail(
            file,
            format!("schema_version {v}, expected {SCHEMA_VERSION}"),
        ),
        None => fail(file, "missing schema_version".into()),
    }
    for key in ["table", "git"] {
        if doc.get(key).and_then(Json::as_str).is_none() {
            fail(file, format!("missing string field {key:?}"));
        }
    }
    if doc.get("generated_unix").and_then(Json::as_i64).is_none() {
        fail(file, "missing integer field \"generated_unix\"".into());
    }
    // The `table` field picks the document shape.
    match doc.get("table").and_then(Json::as_str) {
        Some("profile") => return check_profile(file, &doc),
        Some("bench_diff") => return check_bench_diff(file, &doc),
        _ => {}
    }
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        fail(file, "missing array field \"rows\"".into());
    };
    for (i, row) in rows.iter().enumerate() {
        if row.get("name").and_then(Json::as_str).is_none() {
            fail(file, format!("row {i} has no \"name\""));
        }
    }
    let stats = check_stats(file, &doc, NOT_IN_BASELINES);
    let divergences = check_divergences(file, &doc);
    println!(
        "check_schema: {file}: ok ({} rows, {stats} stats payloads, {divergences} divergences)",
        rows.len()
    );
}

/// A trace validates when the profiler folds it without a warning.
fn check_trace(file: &str, text: &str) {
    let p = profile_str(text);
    if p.warning_count > 0 {
        fail(
            file,
            format!(
                "{} problems:\n  {}",
                p.warning_count,
                p.warnings.join("\n  ")
            ),
        );
    }
    println!(
        "check_schema: {file}: ok ({} events, monotone, balanced)",
        p.events
    );
}

fn main() {
    // Nothing here is configurable, but a stray `PH_*` name still fails
    // closed like in every other binary.
    ph_bench::Config::from_env();
    let files: Vec<String> = std::env::args().skip(1).collect();
    if files.is_empty() {
        eprintln!("usage: check_schema <results.json | trace.jsonl> ...");
        std::process::exit(2);
    }
    for file in &files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => fail(file, format!("cannot read: {e}")),
        };
        if file.ends_with(".jsonl") {
            check_trace(file, &text);
        } else {
            check_results(file, &text);
        }
    }
}
