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
//! `--min-coverage PCT` gates two shares.  The CEGIS phase coverage (the
//! share of `cegis.run` time in its synth/verify/shrink spans) is always
//! checked, and a trace without `cegis.run` fails.  When the trace holds
//! `svc.op.submit` spans (a traced `phd`), the share of their time spent
//! in instrumented child spans (`svc.key`, `cache.lookup`,
//! `svc.reply.render`, `svc.flight.wait`) is checked too.
//!
//! The profile reports per-name call counts, total vs self time and
//! duration percentiles, the per-CEGIS-iteration synth/verify/shrink
//! critical-path breakdown, and inferno-compatible folded stacks
//! (`inferno-flamegraph < out.folded > flame.svg`).  Malformed traces
//! profile anyway, with the problems listed as warnings; `--strict`
//! turns any warning into a nonzero exit.

use ph_bench::report;
use ph_obs::profile::Profiler;
use std::io::BufRead;
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: trace_prof <trace.jsonl> [--top N] [--json] [--folded FILE] \
         [--min-coverage PCT] [--strict]"
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
    let mut strict = false;
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
            "--strict" => strict = true,
            "--help" | "-h" => usage(),
            _ if input.is_none() => input = Some(a),
            _ => usage(),
        }
    }
    let Some(path) = input else { usage() };

    let file = match std::fs::File::open(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("trace_prof: cannot open {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let mut profiler = Profiler::new();
    for line in std::io::BufReader::new(file).lines() {
        match line {
            Ok(l) => profiler.feed_line(&l),
            Err(e) => {
                eprintln!("trace_prof: read error in {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let profile = profiler.finish();

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
    if strict && profile.warning_count > 0 {
        eprintln!(
            "trace_prof: --strict and {} warnings in the trace",
            profile.warning_count
        );
        failed = true;
    }
    if let Some(min) = min_coverage {
        let cov = profile.cegis.coverage_pct();
        if profile.cegis.runs == 0 {
            eprintln!("trace_prof: --min-coverage but the trace has no cegis.run span");
            failed = true;
        } else if cov < min {
            eprintln!("trace_prof: cegis phase coverage {cov:.2}% is below the required {min:.2}%");
            failed = true;
        } else {
            eprintln!("trace_prof: cegis phase coverage {cov:.2}% (>= {min:.2}%)");
        }
        if let Some(cov) = profile.child_coverage_pct("svc.op.submit") {
            if cov < min {
                eprintln!(
                    "trace_prof: svc.op.submit child-span coverage {cov:.2}% is below the \
                     required {min:.2}%"
                );
                failed = true;
            } else {
                eprintln!("trace_prof: svc.op.submit child-span coverage {cov:.2}% (>= {min:.2}%)");
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
