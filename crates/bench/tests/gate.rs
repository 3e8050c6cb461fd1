//! The exact benchmark gate against the committed baselines.
//!
//! `check_schema` must accept the committed `results/table{3,4,5}.json`
//! but reject a copy missing one declared stats key, and `bench_diff` must pass the Table 3 baseline against itself but fail
//! it against a copy with one more TCAM entry, or with one `ok` run timed
//! out at the same budget.  `check_schema` must also accept a well-formed
//! trace and the golden cache entry, and reject each trace defect and an
//! entry whose program names a state that does not exist.

use ph_obs::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

fn baseline(table: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{table}.json"))
}

/// Runs a bench binary with results redirected into `dir`; returns its
/// exit code and combined output.
fn run(bin: &str, args: &[&Path], dir: &Path) -> (i32, String) {
    let out = Command::new(bin)
        .args(args)
        .env("PH_RESULTS_DIR", dir)
        .output()
        .expect("bench binary runs");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.code().expect("exited normally"), text)
}

fn bench_diff(old: &Path, new: &Path, dir: &Path) -> (i32, String) {
    run(env!("CARGO_BIN_EXE_bench_diff"), &[old, new], dir)
}

/// The first successful run with an entry count, outside `stats` payloads.
fn first_ok_run(v: &mut Json) -> Option<&mut Json> {
    let is_run = v.get("ok").and_then(Json::as_bool) == Some(true)
        && v.get("time_s").is_some()
        && v.get("entries").and_then(Json::as_i64).is_some();
    if is_run {
        return Some(v);
    }
    match v {
        Json::Obj(fields) => fields
            .iter_mut()
            .filter(|(k, _)| k != "stats")
            .find_map(|(_, c)| first_ok_run(c)),
        Json::Arr(items) => items.iter_mut().find_map(first_ok_run),
        _ => None,
    }
}

/// The first object stored under `key`, depth first.
fn first_block<'a>(v: &'a mut Json, key: &str) -> Option<&'a mut Json> {
    match v {
        Json::Obj(fields) => fields.iter_mut().find_map(|(k, c)| {
            if k == key {
                Some(c)
            } else {
                first_block(c, key)
            }
        }),
        Json::Arr(items) => items.iter_mut().find_map(|c| first_block(c, key)),
        _ => None,
    }
}

/// Writes a copy of the Table 3 baseline with `edit` applied to its first
/// successful run.
fn mutated(dir: &Path, name: &str, edit: impl FnOnce(&mut Json)) -> PathBuf {
    let text = std::fs::read_to_string(baseline("table3")).expect("committed baseline");
    let mut doc = Json::parse(&text).expect("baseline parses");
    edit(first_ok_run(&mut doc).expect("baseline has a successful run"));
    let path = dir.join(name);
    std::fs::write(&path, doc.to_pretty()).unwrap();
    path
}

#[test]
fn committed_baselines_pass_the_gate_and_mutants_fail_it() {
    let dir = std::env::temp_dir().join(format!("ph-gate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let tables: Vec<PathBuf> = ["table3", "table4", "table5"]
        .iter()
        .map(|t| baseline(t))
        .collect();
    let refs: Vec<&Path> = tables.iter().map(PathBuf::as_path).collect();
    let (code, out) = run(env!("CARGO_BIN_EXE_check_schema"), &refs, &dir);
    assert_eq!(
        code, 0,
        "check_schema rejected a committed baseline:\n{out}"
    );

    // The required stats keys come from the `SynthStats` declaration.
    let text = std::fs::read_to_string(baseline("table3")).expect("committed baseline");
    let mut doc = Json::parse(&text).expect("baseline parses");
    let verify_sat = first_block(&mut doc, "verify_sat").expect("baseline has a verify_sat block");
    let Json::Obj(fields) = verify_sat else {
        panic!("verify_sat is not an object");
    };
    fields.retain(|(k, _)| k != "learnts");
    let no_learnts = dir.join("no_learnts.json");
    std::fs::write(&no_learnts, doc.to_pretty()).unwrap();
    let (code, out) = run(env!("CARGO_BIN_EXE_check_schema"), &[&no_learnts], &dir);
    assert_eq!(
        code, 1,
        "a verify_sat block without learnts must fail:\n{out}"
    );
    assert!(out.contains("learnts"), "{out}");

    let t3 = baseline("table3");
    let (code, out) = bench_diff(&t3, &t3, &dir);
    assert_eq!(code, 0, "self-diff must pass:\n{out}");

    let more_entries = mutated(&dir, "entries.json", |run| {
        let e = run.get("entries").and_then(Json::as_i64).unwrap();
        run.set("entries", e + 1);
    });
    let (code, out) = bench_diff(&t3, &more_entries, &dir);
    assert_eq!(code, 1, "one more entry must regress:\n{out}");
    assert!(out.contains("entries"), "{out}");

    let timed_out = mutated(&dir, "timeout.json", |run| {
        run.set("ok", false);
        run.set("timed_out", true);
        run.set("entries", Json::Null);
        run.set("stages", Json::Null);
    });
    let (code, out) = bench_diff(&t3, &timed_out, &dir);
    assert_eq!(
        code, 1,
        "an ok run timing out at the same budget must regress:\n{out}"
    );
    assert!(out.contains("times out (same budget)"), "{out}");

    let _ = std::fs::remove_dir_all(&dir);
}

/// A trace with every event kind, spans nested two deep.
const GOOD_TRACE: &[&str] = &[
    r#"{"t_ns":0,"ev":"enter","span":"a","id":1}"#,
    r#"{"t_ns":10,"ev":"enter","span":"b","id":2,"parent":1}"#,
    r#"{"t_ns":20,"ev":"count","name":"k","delta":3}"#,
    r#"{"t_ns":30,"ev":"gauge","name":"g","value":7}"#,
    r#"{"t_ns":40,"ev":"record","name":"r","value":5}"#,
    r#"{"t_ns":50,"ev":"msg","level":"info","text":"hi"}"#,
    r#"{"t_ns":60,"ev":"exit","span":"b","id":2,"dur_ns":50}"#,
    r#"{"t_ns":70,"ev":"exit","span":"a","id":1,"dur_ns":70}"#,
];

#[test]
fn check_schema_accepts_a_trace_and_rejects_each_defect() {
    let dir = std::env::temp_dir().join(format!("ph-gate-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let check = |name: &str, lines: &[&str]| {
        let path = dir.join(format!("{name}.jsonl"));
        std::fs::write(&path, lines.join("\n") + "\n").unwrap();
        run(env!("CARGO_BIN_EXE_check_schema"), &[&path], &dir)
    };
    let (code, out) = check("good", GOOD_TRACE);
    assert_eq!(code, 0, "a well-formed trace must pass:\n{out}");

    // Each defect: the line index it replaces (or appends at the end) and
    // the replacement (none drops the line).
    let defects: &[(&str, usize, Option<&str>)] = &[
        ("truncated", 2, Some(r#"{"t_ns":20,"ev":"count","na"#)),
        (
            "backwards",
            3,
            Some(r#"{"t_ns":5,"ev":"gauge","name":"g","value":7}"#),
        ),
        (
            "orphan_exit",
            8,
            Some(r#"{"t_ns":80,"ev":"exit","span":"c","id":9,"dur_ns":1}"#),
        ),
        ("open_at_eof", 7, None),
        (
            "unknown_ev",
            4,
            Some(r#"{"t_ns":40,"ev":"wat","name":"r"}"#),
        ),
        (
            "msg_without_text",
            5,
            Some(r#"{"t_ns":50,"ev":"msg","level":"info"}"#),
        ),
    ];
    for &(name, at, line) in defects {
        let mut lines = GOOD_TRACE.to_vec();
        match line {
            Some(l) if at == lines.len() => lines.push(l),
            Some(l) => lines[at] = l,
            None => {
                lines.remove(at);
            }
        }
        let (code, out) = check(name, &lines);
        assert_eq!(
            code, 1,
            "{name}: check_schema must reject the trace:\n{out}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn check_schema_decodes_cache_entry_programs() {
    let dir = std::env::temp_dir().join(format!("ph-gate-entry-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let golden =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../svc/tests/golden/parse_ethernet.entry.json");
    let (code, out) = run(env!("CARGO_BIN_EXE_check_schema"), &[&golden], &dir);
    assert_eq!(code, 0, "the golden cache entry must pass:\n{out}");

    let text = std::fs::read_to_string(&golden).expect("golden entry");
    let mut doc = Json::parse(&text).expect("golden entry parses");
    let Some(Json::Arr(entries)) = first_block(&mut doc, "entries") else {
        panic!("golden entry has no entries array");
    };
    entries[0].set("next", 99i64);
    let bad = dir.join("bad_next.json");
    std::fs::write(&bad, doc.to_pretty()).unwrap();
    let (code, out) = run(env!("CARGO_BIN_EXE_check_schema"), &[&bad], &dir);
    assert_eq!(code, 1, "a next state out of range must fail:\n{out}");
    assert!(out.contains("out of range"), "{out}");
    let _ = std::fs::remove_dir_all(&dir);
}
