//! Exact benchmark diffing: the library behind `bench_diff`.
//!
//! Compares two `results/table*.json` documents (old = baseline, new =
//! candidate) run-by-run and classifies each change as OK / warning /
//! regression.  Both gates are machine-independent, so a smoke run on any
//! machine can be checked against the committed baselines:
//!
//! 1. **Status** — a run that was `ok` in the baseline and failed in the
//!    candidate is a regression *when the time budgets match*; with
//!    different budgets (e.g. a CI smoke run against a committed
//!    full-budget baseline) it only warns, because a shorter budget
//!    legitimately times out.
//! 2. **Quality** — synthesized TCAM `entries` / pipeline `stages` are
//!    deterministic for a seeded run, so *any* increase is a regression,
//!    with no threshold.
//!
//! Wall times are not compared: timing regressions are judged by the
//! `ledger` benchmark, which measures parent and candidate on one machine.
//!
//! Runs are discovered structurally: any object in a row carrying both
//! `time_s` and `ok` keys is a run, keyed by its row name plus the JSON
//! path to it — so the same walker handles the table3, table4 and table5
//! row shapes (and future ones) without per-table code.

use ph_obs::Json;

/// How one compared run (or the whole diff) fared.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// No gate fired.
    Ok,
    /// Suspicious but not gating (budget-mismatched status flip, a run
    /// present on only one side).
    Warning,
    /// Gating: fail the diff.
    Regression,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Warning => "warning",
            Verdict::Regression => "regression",
        }
    }
}

/// One run extracted from a results document.
#[derive(Clone, Debug)]
struct Run {
    ok: bool,
    timed_out: bool,
    budget_s: Option<f64>,
    entries: Option<i64>,
    stages: Option<i64>,
}

impl Run {
    /// `Some(run)` when `v` looks like a `report::run_json` object.
    fn from_json(v: &Json) -> Option<Run> {
        let ok = v.get("ok")?.as_bool()?;
        // A run also carries its wall time (not compared; see the module
        // docs), which tells it apart from other objects with an `ok` key.
        v.get("time_s")?.as_f64()?;
        Some(Run {
            ok,
            timed_out: v.get("timed_out").and_then(Json::as_bool).unwrap_or(false),
            budget_s: v.get("budget_s").and_then(Json::as_f64),
            entries: v.get("entries").and_then(Json::as_i64),
            stages: v.get("stages").and_then(Json::as_i64),
        })
    }
}

/// One compared run in the report.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// `row name/json/path` of the run.
    pub key: String,
    /// The run's verdict.
    pub verdict: Verdict,
    /// Human-readable reasons for a non-Ok verdict (and improvements).
    pub notes: Vec<String>,
}

/// The whole comparison.
#[derive(Clone, Debug)]
pub struct DiffReport {
    /// Per-run comparisons, in document order.
    pub rows: Vec<DiffRow>,
    /// Runs present on one side only (`(key, "old"|"new")`).
    pub unmatched: Vec<(String, &'static str)>,
    /// Overall verdict: the worst row, and at least a warning when any run
    /// is unmatched.
    pub verdict: Verdict,
}

/// Flattens a results document into `(key, run)` pairs.
///
/// Each element of the top-level `rows` array is walked recursively; any
/// object with `time_s` + `ok` becomes a run keyed by the row's `name`
/// (plus `case` when present, distinguishing table4's per-packet rows)
/// followed by the object-key path, e.g. `Dash V2/tofino/opt`.
fn extract_runs(doc: &Json) -> Vec<(String, Run)> {
    let mut out = Vec::new();
    let Some(rows) = doc.get("rows").and_then(Json::as_arr) else {
        return out;
    };
    for (i, row) in rows.iter().enumerate() {
        let mut prefix = match row.get("name").and_then(Json::as_str) {
            Some(n) => n.to_string(),
            None => format!("row{i}"),
        };
        if let Some(case) = row.get("case").and_then(Json::as_str) {
            prefix = format!("{prefix}/{case}");
        }
        walk(row, &prefix, &mut out);
    }
    out
}

fn walk(v: &Json, path: &str, out: &mut Vec<(String, Run)>) {
    if let Some(run) = Run::from_json(v) {
        out.push((path.to_string(), run));
        return;
    }
    if let Some(fields) = v.as_obj() {
        for (k, child) in fields {
            // `stats` payloads nest timing keys that are not runs.
            if k == "name" || k == "case" || k == "stats" {
                continue;
            }
            walk(child, &format!("{path}/{k}"), out);
        }
    }
}

/// Flags an increase of a deterministic quality count as a regression.
fn quality_gate(what: &str, old: Option<i64>, new: Option<i64>, row: &mut DiffRow) {
    let (Some(a), Some(b)) = (old, new) else {
        return;
    };
    if b > a {
        row.notes.push(format!("{what} {a} -> {b}"));
        row.verdict = Verdict::Regression;
    } else if b < a {
        row.notes.push(format!("{what} {a} -> {b} (improved)"));
    }
}

/// Compares two results documents (see the module docs).
pub fn diff(old_doc: &Json, new_doc: &Json) -> DiffReport {
    let old_runs = extract_runs(old_doc);
    let new_runs = extract_runs(new_doc);
    let mut rows = Vec::new();
    let mut unmatched: Vec<(String, &'static str)> = Vec::new();

    for (key, old) in &old_runs {
        let Some((_, new)) = new_runs.iter().find(|(k, _)| k == key) else {
            unmatched.push((key.clone(), "old"));
            continue;
        };
        let mut row = DiffRow {
            key: key.clone(),
            verdict: Verdict::Ok,
            notes: Vec::new(),
        };

        // Status gate.
        if old.ok && !new.ok {
            let same_budget = match (old.budget_s, new.budget_s) {
                (Some(a), Some(b)) => (a - b).abs() < 1e-9,
                _ => false,
            };
            let what = if new.timed_out { "times out" } else { "fails" };
            if same_budget {
                row.notes.push(format!("was ok, now {what} (same budget)"));
                row.verdict = Verdict::Regression;
            } else {
                row.notes.push(format!(
                    "was ok (budget {:?}s), now {what} (budget {:?}s) — budgets differ, not gating",
                    old.budget_s, new.budget_s
                ));
                row.verdict = Verdict::Warning;
            }
        } else if !old.ok && new.ok {
            row.notes.push("was failing, now ok".into());
        }

        // Quality gates: deterministic, so exact.
        quality_gate("entries", old.entries, new.entries, &mut row);
        quality_gate("stages", old.stages, new.stages, &mut row);
        rows.push(row);
    }
    for (key, _) in &new_runs {
        if !old_runs.iter().any(|(k, _)| k == key) {
            unmatched.push((key.clone(), "new"));
        }
    }

    let mut verdict = rows.iter().map(|r| r.verdict).max().unwrap_or(Verdict::Ok);
    if !unmatched.is_empty() && verdict < Verdict::Warning {
        verdict = Verdict::Warning;
    }
    DiffReport {
        rows,
        unmatched,
        verdict,
    }
}

impl DiffReport {
    /// The text report.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<40}  verdict", "benchmark");
        for r in &self.rows {
            let _ = writeln!(
                out,
                "{:<40}  {}{}",
                r.key,
                r.verdict.as_str(),
                if r.notes.is_empty() {
                    String::new()
                } else {
                    format!(": {}", r.notes.join("; "))
                }
            );
        }
        for (key, side) in &self.unmatched {
            let _ = writeln!(out, "{key:<40}  only in the {side} results");
        }
        let _ = writeln!(
            out,
            "overall: {} ({} runs compared)",
            self.verdict.as_str(),
            self.rows.len()
        );
        out
    }

    /// Whether the diff should fail the build.
    pub fn regressed(&self) -> bool {
        self.verdict == Verdict::Regression
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(ok: bool, time_s: f64, budget_s: f64, entries: i64) -> Json {
        Json::obj()
            .with("ok", ok)
            .with("timed_out", !ok)
            .with("time_s", time_s)
            .with("budget_s", budget_s)
            .with("entries", entries)
            .with("stages", Json::Null)
            .with("stats", Json::obj().with("time_s", 99.0).with("ok", false))
    }

    fn doc(rows: Vec<Json>) -> Json {
        Json::obj()
            .with("schema_version", 1i64)
            .with("table", "table3")
            .with("rows", Json::Arr(rows))
    }

    fn row(name: &str, opt: Json, orig: Json) -> Json {
        Json::obj()
            .with("name", name)
            .with("tofino", Json::obj().with("opt", opt).with("orig", orig))
    }

    #[test]
    fn unchanged_rerun_passes() {
        let a = doc(vec![row(
            "x",
            run(true, 3.0, 30.0, 5),
            run(true, 8.0, 30.0, 9),
        )]);
        let r = diff(&a, &a);
        assert_eq!(r.verdict, Verdict::Ok, "{}", r.render());
        assert_eq!(r.rows.len(), 2);
        // The decoy stats payload was not mistaken for a run.
        assert!(r.rows.iter().all(|x| !x.key.contains("stats")));
        // Wall time is the ledger's to judge, not this gate's.
        let slow = doc(vec![row(
            "x",
            run(true, 30.0, 30.0, 5),
            run(true, 80.0, 30.0, 9),
        )]);
        assert_eq!(diff(&a, &slow).verdict, Verdict::Ok);
    }

    #[test]
    fn quality_increase_is_exact_regression() {
        let a = doc(vec![row(
            "x",
            run(true, 3.0, 30.0, 5),
            run(true, 8.0, 30.0, 9),
        )]);
        let b = doc(vec![row(
            "x",
            run(true, 3.0, 30.0, 6),
            run(true, 8.0, 30.0, 9),
        )]);
        let r = diff(&a, &b);
        assert_eq!(r.verdict, Verdict::Regression, "{}", r.render());
        assert!(r.rows[0].notes.iter().any(|n| n.contains("entries 5 -> 6")));
    }

    #[test]
    fn status_flip_gates_only_on_matching_budgets() {
        let a = doc(vec![row(
            "x",
            run(true, 3.0, 30.0, 5),
            run(true, 8.0, 30.0, 9),
        )]);
        // Same budget: regression.
        let b = doc(vec![row(
            "x",
            run(false, 30.0, 30.0, 5),
            run(true, 8.0, 30.0, 9),
        )]);
        let r = diff(&a, &b);
        assert_eq!(r.rows[0].verdict, Verdict::Regression);
        // Smaller budget (smoke run): warning only.
        let c = doc(vec![row(
            "x",
            run(false, 10.0, 10.0, 5),
            run(true, 8.0, 30.0, 9),
        )]);
        let r = diff(&a, &c);
        assert_eq!(r.rows[0].verdict, Verdict::Warning, "{}", r.render());
        assert_ne!(r.verdict, Verdict::Regression);
    }

    #[test]
    fn unmatched_rows_warn() {
        let a = doc(vec![row(
            "x",
            run(true, 3.0, 30.0, 5),
            run(true, 8.0, 30.0, 9),
        )]);
        let b = doc(vec![
            row("x", run(true, 3.0, 30.0, 5), run(true, 8.0, 30.0, 9)),
            row("y", run(true, 1.0, 30.0, 2), run(true, 1.0, 30.0, 2)),
        ]);
        let r = diff(&a, &b);
        assert_eq!(r.verdict, Verdict::Warning);
        assert_eq!(r.unmatched.len(), 2);
    }
}
