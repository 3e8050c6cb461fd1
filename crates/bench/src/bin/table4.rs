//! Regenerates **Table 4**: ParserHawk vs. DPParserGen (Gibb et al.) on the
//! motivating examples under parameterized hardware resources.
//!
//! ```text
//! cargo run -p ph-bench --release --bin table4 [-- --jobs N]
//! ```
//!
//! `--jobs N` runs up to N rows concurrently (default 1); output order is
//! identical either way.  `PH_TIMEOUT_SECS` sets the synthesis budget
//! (default 30).  `PH_CACHE_DIR=<dir>` enables the `ph-svc`
//! synthesis-result cache (cached rows report near-zero times — leave it
//! unset when timing is the measurement).

use ph_bench::{
    baseline_dp, jobs_from_args, par_map, report, run_parserhawk, short_failure, Config,
};
use ph_benchmarks::registry::motivating_examples;
use ph_core::OptConfig;
use ph_hw::DeviceProfile;
use ph_obs::{Json, Level};

fn main() {
    let config = Config::from_env();
    let jobs = jobs_from_args();
    let tracer = config.install();
    let budget = config.timeout(30);
    let cache = config.cache();
    let mut rows_json: Vec<Json> = Vec::new();

    // (row label, case name, device) — key width / lookahead window /
    // extraction limit per the paper's parameterized-hardware column.
    // Extraction limits are 16-bit (not the paper's 10) because this model
    // extracts whole fields atomically and the ME benchmarks carry a 16-bit
    // key field; see EXPERIMENTS.md.
    let rows: Vec<(&str, &str, DeviceProfile)> = vec![
        (
            "Large tran key (Tofino)",
            "Large tran key",
            DeviceProfile::tofino(),
        ),
        (
            "ME-1  (4-bit key, 2-bit look)",
            "ME-1",
            DeviceProfile::parameterized(4, 2, 16),
        ),
        (
            "ME-2  (16-bit key, 2-bit look)",
            "ME-2",
            DeviceProfile::parameterized(16, 2, 16),
        ),
        (
            "ME-2  (8-bit key, 2-bit look)",
            "ME-2",
            DeviceProfile::parameterized(8, 2, 16),
        ),
        (
            "ME-3  (16-bit key, 2-bit look)",
            "ME-3",
            DeviceProfile::parameterized(16, 2, 16),
        ),
    ];

    println!("Table 4: ParserHawk vs DPParserGen over motivating examples (reproduction)\n");
    println!(
        "{:<48} | {:>16} | {:>16}",
        "Benchmark (hardware)", "ParserHawk #TCAM", "DPParserGen #TCAM"
    );

    let cases = motivating_examples();
    // Each job gets its own row-tagged tracer stream; results land in row
    // order regardless of jobs, so the printed table never changes.
    let runs = par_map(jobs, &rows, |(label, name, device)| {
        let t = tracer.with_branch(label);
        let _g = ph_obs::set_thread_tracer(t.clone());
        t.msg_with(Level::Info, || format!("table4: running {label}"));
        let case = cases.iter().find(|c| c.name == *name).expect("case");
        let ph = run_parserhawk(&case.spec, device, OptConfig::all(), budget, cache.clone());
        let dp = baseline_dp(&case.spec, device);
        (ph, dp)
    });
    for ((label, name, _), (ph, dp)) in rows.iter().zip(runs) {
        rows_json.push(
            Json::obj()
                .with("name", *label)
                .with("case", *name)
                .with("parserhawk", report::run_json(&ph, budget))
                .with("dpparsergen", report::run_json(&dp, budget)),
        );
        println!(
            "{:<48} | {:>16} | {:>16}",
            label,
            ph.entries
                .map(|e| e.to_string())
                .unwrap_or_else(|| if ph.timed_out {
                    ">timeout".into()
                } else {
                    short_failure(&ph)
                }),
            dp.entries
                .map(|e| e.to_string())
                .unwrap_or_else(|| short_failure(&dp)),
        );
    }
    println!(
        "\nExpected shape (paper): ParserHawk <= DPParserGen everywhere, with the\n\
         largest gaps on ME-2 at 8-bit keys (splitting) and ME-3 (redundancy)."
    );

    let doc = report::metadata("table4")
        .with("opt_timeout_s", budget.as_secs())
        .with("jobs", jobs as u64)
        .with("rows", Json::Arr(rows_json));
    match report::write_results(&config.results_dir, "table4", &doc) {
        Ok(path) => println!("\nstructured results: {}", path.display()),
        Err(e) => eprintln!("failed to write results file: {e}"),
    }
    tracer.flush();
}
