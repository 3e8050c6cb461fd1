//! Validates machine-readable benchmark artifacts.
//!
//! ```text
//! cargo run -p ph-bench --bin check_schema -- results/table3.json trace.jsonl
//! ```
//!
//! Two file kinds, told apart by extension:
//!
//! * `.json` — a `table*` results document (what `bench_diff` reads):
//!   must parse, carry `schema_version` 1, a `table` name, git provenance
//!   and a `rows` array of named rows whose embedded `stats` objects
//!   decode as a `SynthStats` (the required keys are the declaration's,
//!   so a new counter is required as soon as it is declared).  A `.json` file
//!   carrying a top-level `cache_version` instead is a `ph-svc`
//!   result-cache entry (`$PH_CACHE_DIR/<key>.json`): its program and
//!   stats must decode with the decoders a cache hit runs.
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
use ph_obs::Json;
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
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        fail(file, "missing array field \"rows\"".into());
    };
    for (i, row) in rows.iter().enumerate() {
        if row.get("name").and_then(Json::as_str).is_none() {
            fail(file, format!("row {i} has no \"name\""));
        }
    }
    let stats = check_stats(file, &doc, NOT_IN_BASELINES);
    println!(
        "check_schema: {file}: ok ({} rows, {stats} stats payloads)",
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
