//! The exact benchmark gate against the committed baselines.
//!
//! `check_schema` must accept the committed `results/table{3,4,5}.json`,
//! and `bench_diff` must pass the Table 3 baseline against itself but fail
//! it against a copy with one more TCAM entry, or with one `ok` run timed
//! out at the same budget.

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
