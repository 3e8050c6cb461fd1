//! Regenerates **Table 5**: the Opt4/Opt5 ablation — compile time with
//! "Other OPT" (Opt4 and Opt5 disabled), "+OPT5", and "+OPT4,5" on the
//! three benchmarks the paper selects.
//!
//! ```text
//! cargo run -p ph-bench --release --bin table5 [-- --jobs N]
//! ```
//!
//! `--jobs N` runs up to N (benchmark, device, config) cells concurrently
//! (default 1); output order is identical either way.  `PH_TIMEOUT_SECS`
//! sets the synthesis budget (default 60).  `PH_CACHE_DIR=<dir>`
//! enables the `ph-svc` synthesis-result cache (cached cells report
//! near-zero times — leave it unset when timing is the measurement).

use ph_bench::{jobs_from_args, par_map, report, run_parserhawk, Config};
use ph_benchmarks::suite;
use ph_core::OptConfig;
use ph_hw::DeviceProfile;
use ph_obs::{Json, Level};

fn main() {
    let config = Config::from_env();
    let jobs = jobs_from_args();
    let tracer = config.install();
    let budget = config.timeout(60);
    let cache = config.cache();
    let mut rows_json: Vec<Json> = Vec::new();
    let benches = vec![suite::sai_v1(), suite::dash_v1(), suite::large_tran_key()];
    let configs = [
        ("Other OPT", OptConfig::without_opt45()),
        ("+ OPT5", OptConfig::without_opt4()),
        ("+ OPT4,5", OptConfig::all()),
    ];

    println!("Table 5: speed-up effect from Opt4/Opt5 (reproduction)\n");
    println!("{:<18} | {:^34} | {:^34}", "Program Name", "Tofino", "IPU");
    println!(
        "{:<18} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
        "", "Other(s)", "+OPT5(s)", "+OPT4,5(s)", "Other(s)", "+OPT5(s)", "+OPT4,5(s)"
    );

    // Flatten to (benchmark, device, config) cells so `--jobs` load-balances
    // across all 18 runs; the grouped row structure is rebuilt in order
    // below, so the printed table and JSON never change with jobs.
    let devices = [
        ("tofino", DeviceProfile::tofino()),
        ("ipu", DeviceProfile::ipu()),
    ];
    let mut units = Vec::new();
    for b in &benches {
        for (dev_name, dev) in &devices {
            for (cfg_name, opts) in configs {
                units.push((b, *dev_name, dev, cfg_name, opts));
            }
        }
    }
    let runs = par_map(jobs, &units, |(b, dev_name, dev, cfg_name, opts)| {
        let t = tracer.with_branch(&format!("{}/{dev_name}/{cfg_name}", b.name));
        let _g = ph_obs::set_thread_tracer(t.clone());
        t.msg_with(Level::Info, || {
            format!("table5: {} / {dev_name} / {cfg_name}", b.name)
        });
        run_parserhawk(&b.spec, dev, *opts, budget, cache.clone())
    });

    let per_bench = devices.len() * configs.len();
    for (b, chunk) in benches.iter().zip(runs.chunks(per_bench)) {
        let mut cells = Vec::new();
        let mut row = Json::obj().with("name", b.name);
        for ((dev_name, _), dev_chunk) in devices.iter().zip(chunk.chunks(configs.len())) {
            let mut dev_json = Json::obj();
            for ((cfg_name, _), r) in configs.iter().zip(dev_chunk) {
                cells.push(r.time_cell(budget));
                dev_json = dev_json.with(cfg_name, report::run_json(r, budget));
            }
            row = row.with(dev_name, dev_json);
        }
        rows_json.push(row);
        println!(
            "{:<18} | {:>10} {:>10} {:>10} | {:>10} {:>10} {:>10}",
            b.name, cells[0], cells[1], cells[2], cells[3], cells[4], cells[5]
        );
    }
    println!(
        "\nExpected shape (paper): each of Opt4 and Opt5 contributes roughly an\n\
         order of magnitude, so columns shrink left to right on both devices."
    );

    let doc = report::metadata("table5")
        .with("ablation_timeout_s", budget.as_secs())
        .with("jobs", jobs as u64)
        .with("rows", Json::Arr(rows_json));
    match report::write_results(&config.results_dir, "table5", &doc) {
        Ok(path) => println!("\nstructured results: {}", path.display()),
        Err(e) => eprintln!("failed to write results file: {e}"),
    }
    tracer.flush();
}
