//! Trace profiler: folds a `PH_TRACE` JSONL stream into a span-tree
//! profile.
//!
//! ```text
//! trace_prof trace.jsonl                # text top-N report on stdout
//! trace_prof trace.jsonl --top 30
//! trace_prof trace.jsonl --json         # + write results/profile.json
//! trace_prof trace.jsonl --folded out.folded   # inferno folded stacks
//! trace_prof trace.jsonl --min-coverage 99     # gate: exit 1 when a
//!                                       # coverage below is lower
//! ```
//!
//! `--min-coverage PCT` gates the child-span coverage of `COVERED_SPANS`:
//! the share of each span name's total time spent in its instrumented
//! children.  `cegis.run` must be in the trace; the other names are
//! checked when present (`cegis.iter` in any CEGIS run, `svc.op.submit`
//! in a traced `phd`).
//!
//! The profile reports per-name call counts, total vs self time and
//! duration percentiles, counters, gauges and record distributions, and
//! inferno-compatible folded stacks
//! (`inferno-flamegraph < out.folded > flame.svg`).  Malformed traces
//! profile anyway, with the problems listed as warnings; `check_schema`
//! rejects a trace with any warning.

use ph_bench::report;
use ph_obs::profile::profile_reader;
use std::process::ExitCode;

/// The spans `--min-coverage` gates; the first must be in the trace.
const COVERED_SPANS: [&str; 3] = ["cegis.run", "cegis.iter", "svc.op.submit"];

fn usage() -> ! {
    eprintln!(
        "usage: trace_prof <trace.jsonl> [--top N] [--json] [--folded FILE] \
         [--min-coverage PCT]"
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let config = ph_bench::Config::from_env();
    let mut args = std::env::args().skip(1);
    let mut input: Option<String> = None;
    let mut top = 20usize;
    let mut json = false;
    let mut folded: Option<String> = None;
    let mut min_coverage: Option<f64> = None;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--top" => {
                top = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--json" => json = true,
            "--folded" => folded = Some(args.next().unwrap_or_else(|| usage())),
            "--min-coverage" => {
                min_coverage = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--help" | "-h" => usage(),
            _ if input.is_none() => input = Some(a),
            _ => usage(),
        }
    }
    let Some(path) = input else { usage() };

    let read = std::fs::File::open(&path).and_then(|f| profile_reader(std::io::BufReader::new(f)));
    let profile = match read {
        Ok(p) => p,
        Err(e) => {
            eprintln!("trace_prof: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", profile.render(top));

    if let Some(fpath) = &folded {
        let text = profile.folded();
        if let Err(e) = std::fs::write(fpath, &text) {
            eprintln!("trace_prof: cannot write {fpath}: {e}");
            return ExitCode::from(2);
        }
        eprintln!(
            "trace_prof: wrote {} folded stack lines to {fpath}",
            text.lines().count()
        );
    }

    if json {
        let doc = report::metadata("profile")
            .with("source", path.as_str())
            .with("profile", profile.to_json());
        match report::write_results(&config.results_dir, "profile", &doc) {
            Ok(p) => eprintln!("trace_prof: wrote {}", p.display()),
            Err(e) => {
                eprintln!("trace_prof: cannot write profile.json: {e}");
                return ExitCode::from(2);
            }
        }
    }

    let mut failed = false;
    if let Some(min) = min_coverage {
        if profile.child_coverage_pct(COVERED_SPANS[0]).is_none() {
            eprintln!("trace_prof: --min-coverage but the trace has no cegis.run span");
            failed = true;
        }
        for name in COVERED_SPANS {
            let Some(cov) = profile.child_coverage_pct(name) else {
                continue;
            };
            if cov < min {
                eprintln!(
                    "trace_prof: {name} child-span coverage {cov:.3}% is below the required \
                     {min:.2}%"
                );
                failed = true;
            } else {
                eprintln!("trace_prof: {name} child-span coverage {cov:.3}% (>= {min:.2}%)");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
