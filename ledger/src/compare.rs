//! `ledger compare <dirA> <dirB>`: side-by-side medians of two sets of
//! runs, judged against the bounds declared in `BENCHMARK.json`.

use crate::stats::{median, quantile};
use ph_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// The benchmark declaration, compiled in so the binary and its bounds
/// cannot drift apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One declared metric.
#[derive(Clone, Debug)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether a lower value is better (`"better": "lower"`).
    pub lower_is_better: bool,
    /// Allowed worsening of the median, as a share (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the ledger uses.
pub struct Bench {
    /// Length of one run's timed phase, in seconds.
    pub run_seconds: u64,
    /// End-to-end metrics, in declaration order.
    pub end_to_end: Vec<Declared>,
    /// Per-layer metrics, in declaration order.
    pub per_layer: Vec<Declared>,
}

impl Bench {
    /// Parses the compiled-in declaration.
    ///
    /// # Panics
    ///
    /// Panics when `BENCHMARK.json` is malformed: it is a build input.
    pub fn load() -> Bench {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<Declared> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
                .iter()
                .map(|m| Declared {
                    name: m
                        .get("name")
                        .and_then(Json::as_str)
                        .expect("metric name")
                        .to_string(),
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .expect("metric unit")
                        .to_string(),
                    lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        Bench {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_i64)
                .expect("run_seconds") as u64,
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    }
}

/// Result files under `dir` (searched three levels deep), keyed by
/// (workload, traced).
fn load_side(dir: &Path) -> Result<BTreeMap<(String, bool), Vec<Json>>, String> {
    fn walk(dir: &Path, depth: usize, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() && depth > 0 {
                walk(&p, depth - 1, out);
            } else if p.extension().is_some_and(|x| x == "json") {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(dir, 3, &mut files);
    files.sort();
    let mut side: BTreeMap<(String, bool), Vec<Json>> = BTreeMap::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        let Ok(doc) = Json::parse(&text) else {
            continue;
        };
        let (Some(w), Some(t)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("trace").and_then(Json::as_bool),
        ) else {
            continue;
        };
        side.entry((w.to_string(), t)).or_default().push(doc);
    }
    if side.is_empty() {
        return Err(format!("no ledger results under {}", dir.display()));
    }
    Ok(side)
}

fn values(docs: &[Json], metric: &str) -> Vec<f64> {
    docs.iter()
        .filter_map(|d| d.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn ints(docs: &[Json], key: &str) -> Vec<i64> {
    let mut v: Vec<i64> = docs.iter().filter_map(|d| d.get(key)?.as_i64()).collect();
    v.sort_unstable();
    v
}

/// `ledger compare`: exit 0 when every end-to-end median is within its
/// bound, 1 on any regression beyond it, 2 when the sides are not
/// comparable.
pub fn main(a: &Path, b: &Path) -> ExitCode {
    match compare(a, b) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(breaches) => {
            println!("{breaches} end-to-end median(s) worse than their bound");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ledger compare: {e}");
            ExitCode::from(2)
        }
    }
}

/// Prints the comparison and returns the number of end-to-end medians that
/// got worse by more than their bound, or why the sides are not comparable.
fn compare(a: &Path, b: &Path) -> Result<usize, String> {
    let bench = Bench::load();
    let sides = (load_side(a)?, load_side(b)?);
    let mut nprocs: Vec<i64> = sides
        .0
        .values()
        .chain(sides.1.values())
        .flat_map(|docs| ints(docs, "nproc"))
        .collect();
    nprocs.sort_unstable();
    nprocs.dedup();
    if nprocs.len() != 1 {
        return Err(format!(
            "refusing: results come from machines with nproc {nprocs:?}"
        ));
    }

    let mut breaches = 0;
    let fmt = |v: &[f64]| {
        format!(
            "{:>12.5} [{:.5}, {:.5}] n={}",
            median(v),
            quantile(v, 0.25),
            quantile(v, 0.75),
            v.len()
        )
    };
    for ((workload, traced), docs_a) in &sides.0 {
        let Some(docs_b) = sides.1.get(&(workload.clone(), *traced)) else {
            println!(
                "{workload}{}: only in {}",
                if *traced { " (traced)" } else { "" },
                a.display()
            );
            continue;
        };
        if ints(docs_a, "seed") != ints(docs_b, "seed") {
            return Err(format!(
                "refusing: {workload} runs use different seeds on the two sides"
            ));
        }
        if !traced {
            for m in &bench.end_to_end {
                let (va, vb) = (values(docs_a, &m.name), values(docs_b, &m.name));
                let (ma, mb) = (median(&va), median(&vb));
                let change = if ma != 0.0 { (mb - ma) / ma.abs() } else { 0.0 };
                let worse = if m.lower_is_better { change } else { -change };
                let bound = m.bound.unwrap_or(0.0);
                let verdict = if worse > bound {
                    breaches += 1;
                    "BREACH"
                } else if -worse > bound {
                    "better"
                } else {
                    "ok"
                };
                println!(
                    "{workload:<9} {:<24} A {} | B {} | {:+.1}% (bound {:.0}%) {verdict}",
                    m.name,
                    fmt(&va),
                    fmt(&vb),
                    100.0 * change,
                    100.0 * bound
                );
            }
        } else {
            for m in bench
                .per_layer
                .iter()
                .filter(|m| matches!(m.unit.as_str(), "count" | "bits"))
            {
                let (ma, mb) = (
                    median(&values(docs_a, &m.name)),
                    median(&values(docs_b, &m.name)),
                );
                if ma != mb {
                    println!("{workload:<9} count differs: {} A {ma} B {mb}", m.name);
                }
            }
        }
    }
    Ok(breaches)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes one untraced result file with every end-to-end metric at
    /// `value`, except `compile_s_total` at `total`.
    fn result(dir: &Path, run: usize, nproc: u64, seed: u64, total: f64) {
        let mut metrics = Json::obj();
        for m in Bench::load().end_to_end {
            let v = if m.name == "compile_s_total" {
                total
            } else {
                1.0
            };
            metrics.set(
                &m.name,
                Json::obj().with("value", v).with("unit", m.unit.as_str()),
            );
        }
        let doc = Json::obj()
            .with("workload", "quick")
            .with("trace", false)
            .with("seed", seed)
            .with("nproc", nproc)
            .with("metrics", metrics);
        let run_dir = dir.join(format!("run{run}"));
        std::fs::create_dir_all(&run_dir).unwrap();
        std::fs::write(run_dir.join("quick.json"), doc.to_pretty()).unwrap();
    }

    #[test]
    fn flags_regressions_and_refuses_mismatched_runs() {
        let root = std::env::temp_dir().join(format!("ledger-compare-{}", std::process::id()));
        let side = |name: &str, nproc: u64, seed: u64, totals: &[f64]| {
            let dir = root.join(name);
            for (run, &t) in totals.iter().enumerate() {
                result(&dir, run, nproc, seed, t);
            }
            dir
        };
        let base = side("base", 2, 1, &[10.0, 10.5, 9.5]);
        let same = side("same", 2, 1, &[10.2, 9.9, 10.4]);
        let slow = side("slow", 2, 1, &[13.0, 13.5, 12.5]);
        let other_box = side("other_box", 4, 1, &[10.0, 10.0, 10.0]);
        let other_seed = side("other_seed", 2, 2, &[10.0, 10.0, 10.0]);
        assert_eq!(compare(&base, &same), Ok(0));
        assert_eq!(compare(&base, &slow), Ok(1));
        assert_eq!(compare(&slow, &base), Ok(0), "a speed-up is not a breach");
        assert!(compare(&base, &other_box).is_err());
        assert!(compare(&base, &other_seed).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
