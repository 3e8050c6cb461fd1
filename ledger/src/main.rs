//! The ParserHawk performance **ledger**: one benchmark for compile time,
//! output quality and service latency, end to end and split by layer.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload <quick|hard|svc-mixed|all> [--seed N] [--seconds S] [--trace [0|1]] [--out DIR]
//! cargo run --release --manifest-path ledger/Cargo.toml -- --workload quick --trace
//! cargo run --release --manifest-path ledger/Cargo.toml -- compare <dirA> <dirB>
//! cargo test --release --manifest-path ledger/Cargo.toml
//! ```
//!
//! The ledger measures the configuration users get:
//! `Synthesizer::new(device, OptConfig::all())` with default `SynthParams`
//! apart from a 60 s timeout.  It refuses to start when any `PH_*`
//! variable is set, and records `nproc` with every result.  Each workload
//! runs in its own child process.  The seed (default 1) fixes every input
//! (see `gen.rs`): the seeded renames of the registry specs, the order of
//! each pass and the service's request stream.  `--seconds` (default
//! `run_seconds` of `BENCHMARK.json`) bounds the timed phase.
//!
//! Every metric is printed as `workload metric value unit`, and the run
//! writes `<out>/<workload>.json` (default `<out>`: `target/ledger/`).  The
//! last line of output is a JSON summary: `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! # Workloads
//!
//! * `quick` — 38 (case, device) pairs, every Table 3 row whose compile is
//!   sub-second with at most about 2k conflicts, compiled one at a time in
//!   passes.  Fixed per-compile costs dominate: skeleton build, encoding,
//!   verifier set-up, final validation, threads and the CEGIS watchdog,
//!   whose 20 ms poll makes compile times step in 20 ms increments.
//! * `hard` — Large tran key + R1 + R4 on both devices and Sai V1 + R2 on
//!   Tofino, 0.7–2.5 s each with 7k–9k conflicts.  SAT search dominates,
//!   and the paths gated on 5,000 conflicts (simplification, the portfolio,
//!   batched CEGIS) engage on a multi-core machine.  The slower rows of
//!   Table 3 (MPLS + unroll, Sai V2) take 8–35 s and would repeat too few
//!   times in one run to give a steady median.
//! * `svc-mixed` — an in-process `ph_svc::Server` (2 workers, fresh cache,
//!   loopback) driven by 2 closed-loop connections over the `quick` pairs,
//!   in 3 epochs with a new daemon each.  Every request is a fresh variant;
//!   each key misses once per epoch and every other request hits.  It
//!   exercises canonicalization, the codec, cache I/O and the worker queue,
//!   while hits do no SAT work: a solver change should move only the
//!   compile metrics here, a cache or codec change only the latencies.
//!
//! # End-to-end metrics
//!
//! From the untraced run; the bound is the share by which the median may
//! get worse before a change counts as a regression.
//!
//! | metric | unit | bound | definition |
//! |---|---|---|---|
//! | `setup_s` | s | 25% | median of 15 set-ups: build the pairs, generate and validate the first inputs, start the daemon |
//! | `compile_s_total` | s | 25% | sum over compiles (pairs; cache keys for the service) of each one's median time |
//! | `compile_s_geomean` | s | 25% | geometric mean of the same medians |
//! | `latency_ms_mean` | ms | 25% | mean latency of a compile, or of a service hit |
//! | `latency_ms_tail` | ms | 25% | 90th percentile over pairs of each pair's median latency |
//! | `ok_frac` | ratio | 1% | operations that returned a program over operations attempted |
//! | `tcam_entries_sum` | entries | 1% | sum over Tofino pairs of each pair's median TCAM entries |
//! | `ipu_stages_sum` | stages | 1% | sum over IPU pairs of each pair's median stages |
//! | `compile_heap_mb_geomean` | MB | 10% | geometric mean over compiles of each one's median peak live heap |
//!
//! Wrong outputs make the run fail instead of being a metric: every program
//! a workload receives is checked (see `check.rs`) and any violation sets
//! `correct` to false and the exit code to 1.
//!
//! # Per-layer metrics
//!
//! `--trace` runs the workload under a `ph_obs::Tracer` writing
//! `<out>/<workload>.trace.jsonl`, folds the trace with `ph_obs::profile`
//! and writes `<out>/<workload>.layers.json`: the 38 per-layer metrics of
//! `BENCHMARK.json` (see `layers.rs` for each and the end-to-end metric it
//! should move) plus the self-time share, calls and p50/p99 of every span
//! name, the program's own `cegis.*`, `smt.*` and `sat.*` spans included.
//! The compile workloads alternate traced and untraced passes, which gives
//! `obs.trace_overhead_pct`.
//!
//! # Comparing runs
//!
//! `compare <dirA> <dirB>` reads every result file up to three levels
//! below each directory (use one `--out` per run), prints each side's
//! median and quartiles per (metric, workload), flags medians worse than
//! their bound, and lists per-layer counts that differ.  It exits 1 on any
//! breach and 2 when the runs differ in `nproc` or seeds.  On a multi-core
//! machine the Opt7 race and the portfolio make counts such as conflicts
//! differ slightly even between runs of one seed.
//!
//! # Baseline
//!
//! Medians of seeds 1–10 at 35 s on a 2-vCPU x86-64 VM, with the spread
//! (interquartile range over median) in brackets.  All 30 runs were correct
//! with no failed operation.
//!
//! | metric | `quick` | `hard` | `svc-mixed` |
//! |---|---|---|---|
//! | `setup_s` | 0.62 ms | 0.28 ms | 11.0 ms |
//! | `compile_s_total` | 4.79 s (18%) | 5.26 s (11%) | 6.96 s (11%) |
//! | `compile_s_geomean` | 82.0 ms (15%) | 1.55 s (9%) | 185 ms (9%) |
//! | `latency_ms_mean` | 131 ms (13%) | 1764 ms (14%) | 80.5 ms (1%) |
//! | `latency_ms_tail` | 205 ms (13%) | 2455 ms (9%) | 88.0 ms (0.1%) |
//! | `ok_frac` | 1 | 1 | 1 |
//! | `tcam_entries_sum` | 83 | 21 | 83 |
//! | `ipu_stages_sum` | 40 | 2 | 40 |
//! | `compile_heap_mb_geomean` | 9.79 MB (1%) | 102 MB (2%) | 9.31 MB (3%) |
//!
//! Compile times on that machine drift by 10–20% between runs minutes
//! apart, repeated seeds included, which is why their bounds are 25%.

mod check;
mod compare;
mod compile;
mod gen;
mod heap;
mod layers;
mod stats;
mod svc;

use ph_obs::{Json, JsonlSink, Tracer};
use stats::{median, Metrics, Op};
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// A workload of the ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// Sub-second compiles.
    Quick,
    /// SAT-dominated compiles.
    Hard,
    /// The synthesis service under a mixed hit/miss stream.
    SvcMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Quick, Workload::Hard, Workload::SvcMixed];

    fn name(self) -> &'static str {
        match self {
            Workload::Quick => "quick",
            Workload::Hard => "hard",
            Workload::SvcMixed => "svc-mixed",
        }
    }

    fn parse(s: &str) -> Option<Vec<Workload>> {
        if s == "all" {
            return Some(Workload::ALL.to_vec());
        }
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .map(|w| vec![w])
    }
}

/// How one workload run is driven.
pub struct RunCfg {
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed phase.
    pub budget: Duration,
    /// The traced run's tracer; `None` for the untraced run.
    pub tracer: Option<Tracer>,
    /// Minimal run for the tests: one pair (two for the service) and a few
    /// operations.
    pub smoke: bool,
    /// Private directory for caches; removed afterwards.
    pub scratch: PathBuf,
}

/// What one workload run produced.
pub struct RunOutput {
    /// The workload's pairs.
    pub pairs: Vec<gen::Pair>,
    /// Every timed operation.
    pub ops: Vec<Op>,
    /// Every output the check rejected.
    pub wrong: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
}

/// Runs `setup` [`SETUP_REPS`] times and returns the median time with the
/// last result.  Earlier results are dropped untimed.
pub fn median_setup<T>(mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t0 = Instant::now();
        let v = setup();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Runs one workload in this process.
pub fn run_workload(w: Workload, cfg: &RunCfg) -> RunOutput {
    match w {
        Workload::Quick => compile::run(compile::QUICK, cfg),
        Workload::Hard => compile::run(compile::HARD, cfg),
        Workload::SvcMixed => svc::run(cfg),
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
    child: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("ledger: {msg}");
    eprintln!(
        "usage: ledger --workload <quick|hard|svc-mixed|all> [--seed N] [--seconds S] \
         [--trace [0|1]] [--out DIR]\n       ledger compare <dirA> <dirB>"
    );
    ExitCode::from(2)
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workloads: Vec::new(),
        seed: 1,
        seconds: compare::Bench::load().run_seconds,
        trace: false,
        out: PathBuf::from("target/ledger"),
        child: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                a.workloads = Workload::parse(&v).ok_or(format!("unknown workload {v:?}"))?;
            }
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => a.seconds = value("--seconds")?.parse().map_err(|_| "bad --seconds")?,
            "--out" => a.out = PathBuf::from(value("--out")?),
            // `--trace` alone means traced; `--trace 0|1` sets it explicitly.
            "--trace" => {
                a.trace = true;
                if let Some(v @ ("0" | "1")) = it.peek().map(|s| s.as_str()) {
                    a.trace = v == "1";
                    it.next();
                }
            }
            "--child" => a.child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if a.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set of this process (`VmHWM`) in MB, kept in the result
/// file for reference; `heap.rs` explains why it is not a metric.
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    Some(
        kb.trim()
            .trim_end_matches("kB")
            .trim()
            .parse::<f64>()
            .ok()?
            / 1024.0,
    )
}

fn result_path(out: &Path, w: Workload, trace: bool) -> PathBuf {
    out.join(format!(
        "{}.{}json",
        w.name(),
        if trace { "layers." } else { "" }
    ))
}

fn metrics_json(metrics: &Metrics) -> Json {
    let mut j = Json::obj();
    for m in &metrics.0 {
        j.set(
            &m.name,
            Json::obj().with("value", m.value).with("unit", m.unit),
        );
    }
    j
}

/// Runs one workload inside the child process and writes its result file.
fn child(w: Workload, a: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&a.out) {
        eprintln!("ledger: cannot create {}: {e}", a.out.display());
        return ExitCode::FAILURE;
    }
    let trace_path = a.out.join(format!("{}.trace.jsonl", w.name()));
    let tracer = if a.trace {
        match std::fs::File::create(&trace_path) {
            Ok(f) => Some(Tracer::new(Arc::new(JsonlSink::new(Box::new(
                BufWriter::new(f),
            ))))),
            Err(e) => {
                eprintln!("ledger: cannot create {}: {e}", trace_path.display());
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    // The daemon's threads trace through the process-global tracer; it must
    // be installed before anything asks for it.
    if let (Workload::SvcMixed, Some(t)) = (w, &tracer) {
        ph_obs::init_global(t.clone());
    }
    let scratch = a
        .out
        .join(format!("scratch-{}-{}", w.name(), std::process::id()));
    let cfg = RunCfg {
        seed: a.seed,
        budget: Duration::from_secs(a.seconds),
        tracer: tracer.clone(),
        smoke: false,
        scratch: scratch.clone(),
    };
    let run = run_workload(w, &cfg);
    let _ = std::fs::remove_dir_all(&scratch);

    let failed = run.ops.iter().filter(|o| !o.ok).count();
    let mut pairs = Json::arr();
    for (i, p) in run.pairs.iter().enumerate() {
        let ops: Vec<&Op> = run.ops.iter().filter(|o| o.pair == i).collect();
        let ok: Vec<f64> = ops.iter().filter(|o| o.ok).map(|o| o.secs).collect();
        pairs.push(
            Json::obj()
                .with("pair", p.label())
                .with("ops", ops.len())
                .with("ok", ok.len())
                .with("median_s", median(&ok))
                .with(
                    "entries",
                    ops.iter().find(|o| o.ok).map_or(0, |o| o.entries),
                )
                .with("stages", ops.iter().find(|o| o.ok).map_or(0, |o| o.stages)),
        );
    }
    let mut doc = Json::obj()
        .with("workload", w.name())
        .with("seed", a.seed)
        .with("seconds", a.seconds)
        .with("trace", a.trace)
        .with("nproc", nproc())
        .with("vm_hwm_mb", vm_hwm_mb().map_or(Json::Null, Json::from))
        .with("correct", run.wrong.is_empty())
        .with("attempted", run.ops.len())
        .with("failed", failed)
        .with("wrong_outputs", run.wrong.len())
        .with(
            "wrong",
            Json::Arr(run.wrong.iter().map(|s| Json::from(s.as_str())).collect()),
        )
        .with("metrics", metrics_json(&run.metrics))
        .with("pairs", pairs);
    if let Some(t) = &tracer {
        t.flush();
        let profile = std::fs::File::open(&trace_path)
            .and_then(|f| ph_obs::profile::profile_reader(std::io::BufReader::new(f)));
        match profile {
            Ok(p) => doc.set("spans", layers::span_table(&p)),
            Err(e) => {
                eprintln!("ledger: cannot fold {}: {e}", trace_path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    let path = result_path(&a.out, w, a.trace);
    if let Err(e) = std::fs::write(&path, doc.to_pretty()) {
        eprintln!("ledger: cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    for m in &run.metrics.0 {
        println!("{} {} {} {}", w.name(), m.name, m.value, m.unit);
    }
    for why in &run.wrong {
        eprintln!("ledger: wrong output: {why}");
    }
    if run.wrong.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs each workload in its own child process, then prints the summary
/// line: `{"correct", "attempted", "failed", "metrics"}`.
fn parent(a: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("ledger: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed, mut all_ok) = (true, 0i64, 0i64, true);
    let mut metrics = Json::obj();
    for &w in &a.workloads {
        let path = result_path(&a.out, w, a.trace);
        let _ = std::fs::remove_file(&path);
        let status = Command::new(&exe)
            .args(["--child", "--workload", w.name()])
            .args(["--seed", &a.seed.to_string()])
            .args(["--seconds", &a.seconds.to_string()])
            .args(["--trace", if a.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&a.out)
            .status();
        all_ok &= status.as_ref().is_ok_and(|s| s.success());
        let doc = std::fs::read_to_string(&path)
            .ok()
            .and_then(|t| Json::parse(&t).ok());
        let Some(doc) = doc else {
            eprintln!(
                "ledger: workload {} produced no result ({status:?})",
                w.name()
            );
            return ExitCode::FAILURE;
        };
        correct &= doc.get("correct").and_then(Json::as_bool) == Some(true);
        attempted += doc.get("attempted").and_then(Json::as_i64).unwrap_or(0);
        failed += doc.get("failed").and_then(Json::as_i64).unwrap_or(0);
        for (name, m) in doc
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let key = if a.workloads.len() > 1 {
                format!("{}.{name}", w.name())
            } else {
                name.clone()
            };
            metrics.set(&key, m.clone());
        }
    }
    println!(
        "{}",
        Json::obj()
            .with("correct", correct)
            .with("attempted", attempted)
            .with("failed", failed)
            .with("metrics", metrics)
    );
    if correct && all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let knobs: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("PH_"))
        .collect();
    if !knobs.is_empty() {
        eprintln!(
            "ledger: refusing to run with {} set: the ledger measures the default configuration",
            knobs.join(", ")
        );
        return ExitCode::from(2);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match &argv[1..] {
            [a, b] => compare::main(Path::new(a), Path::new(b)),
            _ => usage("compare takes two directories"),
        };
    }
    match parse_args(&argv) {
        Err(e) => usage(&e),
        Ok(a) if a.child => child(a.workloads[0], &a),
        Ok(a) => parent(&a),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_obs::NoopSink;

    /// Each workload, on one pair or 20 requests, emits exactly the metrics
    /// `BENCHMARK.json` declares, in order and with the declared units,
    /// untraced and traced; and every output passes the check.
    fn drift_guard(w: Workload) {
        let bench = compare::Bench::load();
        for traced in [false, true] {
            let scratch = std::env::temp_dir().join(format!(
                "ledger-test-{}-{}-{traced}",
                w.name(),
                std::process::id()
            ));
            let cfg = RunCfg {
                seed: 1,
                budget: Duration::ZERO,
                tracer: traced.then(|| Tracer::new(Arc::new(NoopSink))),
                smoke: true,
                scratch: scratch.clone(),
            };
            let run = run_workload(w, &cfg);
            let _ = std::fs::remove_dir_all(&scratch);
            assert!(run.wrong.is_empty(), "{:?}", run.wrong);
            assert!(run.ops.iter().all(|o| o.ok));
            let emitted: Vec<(&str, &str)> = run
                .metrics
                .0
                .iter()
                .map(|m| (m.name.as_str(), m.unit))
                .collect();
            let declared = if traced {
                &bench.per_layer
            } else {
                &bench.end_to_end
            };
            let declared: Vec<(&str, &str)> = declared
                .iter()
                .map(|m| (m.name.as_str(), m.unit.as_str()))
                .collect();
            assert_eq!(emitted, declared, "{} traced={traced}", w.name());
        }
    }

    #[test]
    fn quick_emits_the_declared_metrics() {
        drift_guard(Workload::Quick);
    }

    #[test]
    fn hard_emits_the_declared_metrics() {
        drift_guard(Workload::Hard);
    }

    #[test]
    fn svc_mixed_emits_the_declared_metrics() {
        drift_guard(Workload::SvcMixed);
    }

    #[test]
    fn args_parse_flags_and_trace_values() {
        let argv = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let a = parse_args(&argv("--workload hard --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workloads, a.seed, a.seconds, a.trace),
            (vec![Workload::Hard], 7, 3, true)
        );
        let a = parse_args(&argv("--trace --workload all")).unwrap();
        assert!(a.trace && a.workloads.len() == 3);
        assert!(
            !parse_args(&argv("--workload quick --trace 0"))
                .unwrap()
                .trace
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
    }
}
