//! Regenerates **Table 3**: ParserHawk (optimized vs naive encoding) against
//! the commercial-style Tofino and IPU compilers over the full benchmark
//! registry, plus the §7 summary claims (baseline reject counts, geometric
//! mean speed-up).
//!
//! ```text
//! cargo run -p ph-bench --release --bin table3
//! ```
//!
//! `PH_TIMEOUT_SECS` (default 30) / `PH_ORIG_TIMEOUT_SECS` (default 10)
//! adjust budgets; the naive column prints `>N` on timeout like the
//! paper's `>86400` cells.  `PH_FILTER=MPLS` restricts rows by substring.  `--jobs N` runs up
//! to N cases concurrently (default 1: fully sequential and deterministic);
//! output order is identical either way.
//!
//! Besides the stdout table, a machine-readable
//! `results/table3.json` (see [`ph_bench::report`]) records every run with
//! its full per-phase timings and SAT counters.  `PH_TRACE=<path>` streams
//! a JSON-lines trace of the underlying synthesis runs.
//!
//! `PH_CACHE_DIR=<dir>` enables the `ph-svc` synthesis-result cache: a
//! second run over the same registry replays cached programs (reported
//! `cache_hits` in the per-run stats) instead of re-synthesizing.  Leave
//! it unset when the timing columns themselves are the measurement.

use ph_bench::{
    baseline_ipu, baseline_tofino, geomean, jobs_from_args, par_map, report, run_parserhawk,
    short_failure, Config,
};
use ph_core::OptConfig;
use ph_hw::DeviceProfile;
use ph_obs::{Json, Level};
use std::time::Duration;

fn main() {
    let config = Config::from_env();
    let jobs = jobs_from_args();
    let tracer = config.install();
    let opt_budget = config.timeout(30);
    let orig_budget = Duration::from_secs(config.orig_timeout_secs);
    let filter = config.filter.as_str();
    let cache = config.cache();
    let tofino = DeviceProfile::tofino();
    let ipu = DeviceProfile::ipu();

    println!("Table 3: ParserHawk vs. Tofino and IPU compiler (reproduction)");
    println!(
        "opt timeout {}s, orig timeout {}s\n",
        opt_budget.as_secs(),
        orig_budget.as_secs()
    );
    println!(
        "{:<34} | {:>6} {:>6} {:>8} {:>8} {:>9} | {:>14} | {:>6} {:>6} {:>8} {:>8} {:>9} | {:>14}",
        "Program Name",
        "#TCAM",
        "Space",
        "OPT(s)",
        "Orig(s)",
        "speedup",
        "Tofino comp.",
        "#Stage",
        "Space",
        "OPT(s)",
        "Orig(s)",
        "speedup",
        "IPU comp."
    );

    let mut speedups: Vec<(f64, bool)> = Vec::new();
    let mut baseline_rejects = 0usize;
    let mut baseline_worse = 0usize;
    let mut total_cases = 0usize;
    let mut ph_failures = 0usize;
    let mut rows_json: Vec<Json> = Vec::new();

    let cases: Vec<_> = ph_benchmarks::registry()
        .into_iter()
        .filter(|c| c.name.contains(filter))
        .collect();
    // Each job runs under its own case-tagged tracer stream, so interleaved
    // workers stay distinguishable in the trace; printing and aggregation
    // below consume the results in registry order regardless of jobs.
    let runs = par_map(jobs, &cases, |case| {
        let t = tracer.with_branch(&case.name);
        let _g = ph_obs::set_thread_tracer(t.clone());
        t.msg_with(Level::Info, || format!("table3: running {}", case.name));

        // --- Tofino side -------------------------------------------------
        let run =
            |device, opts, budget| run_parserhawk(&case.spec, device, opts, budget, cache.clone());
        let ph_t = run(&tofino, OptConfig::all(), opt_budget);
        let orig_t = run(&tofino, OptConfig::none(), orig_budget);
        let bl_t = baseline_tofino(&case.spec, &tofino);

        // --- IPU side ----------------------------------------------------
        let ph_i = run(&ipu, OptConfig::all(), opt_budget);
        let orig_i = run(&ipu, OptConfig::none(), orig_budget);
        let bl_i = baseline_ipu(&case.spec, &ipu);

        (ph_t, orig_t, bl_t, ph_i, orig_i, bl_i)
    });

    for (case, (ph_t, orig_t, bl_t, ph_i, orig_i, bl_i)) in cases.iter().zip(runs) {
        rows_json.push(
            Json::obj()
                .with("name", case.name.as_str())
                .with(
                    "tofino",
                    Json::obj()
                        .with("opt", report::run_json(&ph_t, opt_budget))
                        .with("orig", report::run_json(&orig_t, orig_budget))
                        .with("baseline", report::run_json(&bl_t, opt_budget)),
                )
                .with(
                    "ipu",
                    Json::obj()
                        .with("opt", report::run_json(&ph_i, opt_budget))
                        .with("orig", report::run_json(&orig_i, orig_budget))
                        .with("baseline", report::run_json(&bl_i, opt_budget)),
                ),
        );

        for (opt, orig) in [(&ph_t, &orig_t), (&ph_i, &orig_i)] {
            total_cases += 1;
            if !opt.ok() {
                ph_failures += 1;
                continue;
            }
            let o = if orig.timed_out {
                (
                    orig_budget.as_secs_f64() / opt.time.as_secs_f64().max(1e-3),
                    true,
                )
            } else if orig.ok() {
                (
                    orig.time.as_secs_f64() / opt.time.as_secs_f64().max(1e-3),
                    false,
                )
            } else {
                continue;
            };
            speedups.push(o);
        }
        for (ph, bl, metric) in [(&ph_t, &bl_t, "entries"), (&ph_i, &bl_i, "stages")] {
            if !bl.ok() {
                baseline_rejects += 1;
            } else if ph.ok() {
                let (p, b) = match metric {
                    "entries" => (ph.entries.unwrap(), bl.entries.unwrap()),
                    _ => (ph.stages.unwrap(), bl.stages.unwrap()),
                };
                if b > p {
                    baseline_worse += 1;
                }
            }
        }

        let fmt_speed = |opt: &ph_bench::RunResult, orig: &ph_bench::RunResult| -> String {
            if !opt.ok() {
                return "-".into();
            }
            if orig.timed_out {
                format!(
                    ">{:.1}x",
                    orig_budget.as_secs_f64() / opt.time.as_secs_f64().max(1e-3)
                )
            } else if orig.ok() {
                format!(
                    "{:.1}x",
                    orig.time.as_secs_f64() / opt.time.as_secs_f64().max(1e-3)
                )
            } else {
                "-".into()
            }
        };
        let cell = |v: Option<usize>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".into());
        let ph_cell = |r: &ph_bench::RunResult| match (r.entries, &r.failure) {
            (Some(e), _) => e.to_string(),
            (None, Some(_)) => short_failure(r),
            (None, None) => "-".into(),
        };
        println!(
            "{:<34} | {:>6} {:>6} {:>8} {:>8} {:>9} | {:>14} | {:>6} {:>6} {:>8} {:>8} {:>9} | {:>14}",
            case.name,
            ph_cell(&ph_t),
            cell(ph_t.space_bits),
            ph_t.time_cell(opt_budget),
            orig_t.time_cell(orig_budget),
            fmt_speed(&ph_t, &orig_t),
            if bl_t.ok() { cell(bl_t.entries) } else { short_failure(&bl_t) },
            match (ph_i.stages, &ph_i.failure) {
                (Some(s), _) => s.to_string(),
                (None, Some(_)) => short_failure(&ph_i),
                (None, None) => "-".into(),
            },
            cell(ph_i.space_bits),
            ph_i.time_cell(opt_budget),
            orig_i.time_cell(orig_budget),
            fmt_speed(&ph_i, &orig_i),
            if bl_i.ok() { cell(bl_i.stages) } else { short_failure(&bl_i) },
        );
    }

    let (g, lb) = geomean(&speedups);
    println!("\nSummary (§7.2 / §7.4 claims):");
    println!(
        "  baseline compilers reject {baseline_rejects} of {total_cases} cases; \
         use more resources than ParserHawk on {baseline_worse}"
    );
    println!("  ParserHawk compile failures/timeouts: {ph_failures} of {total_cases}");
    println!(
        "  geometric-mean OPT-vs-Orig speed-up: {}{:.2}x over {} measured pairs",
        if lb { ">" } else { "" },
        g,
        speedups.len()
    );
    println!(
        "  (paper: 309.44x geometric mean with a 24 h Orig budget; shorter budgets\n   \
         truncate the observable speed-up, so the printed value is a lower bound)"
    );

    let doc = report::metadata("table3")
        .with("opt_timeout_s", opt_budget.as_secs())
        .with("orig_timeout_s", orig_budget.as_secs())
        .with("filter", filter)
        .with("jobs", jobs as u64)
        .with("rows", Json::Arr(rows_json))
        .with(
            "summary",
            Json::obj()
                .with("total_cases", total_cases)
                .with("ph_failures", ph_failures)
                .with("baseline_rejects", baseline_rejects)
                .with("baseline_worse", baseline_worse)
                .with("measured_pairs", speedups.len())
                .with("geomean_speedup", g)
                .with("geomean_is_lower_bound", lb),
        );
    match report::write_results(&config.results_dir, "table3", &doc) {
        Ok(path) => println!("\nstructured results: {}", path.display()),
        Err(e) => eprintln!("failed to write results file: {e}"),
    }
    tracer.flush();
}
