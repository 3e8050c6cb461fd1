//! Differential fuzzing oracle over the whole Table 3 benchmark registry.
//!
//! ```text
//! cargo run -p ph-bench --release --bin fuzz_e2e -- --jobs 4
//! ```
//!
//! For every registry case the oracle three-way-compares the specification
//! simulator, the synthesized program and the baseline `direct_translate`
//! program on grammar-aware packets (seeds covering every spec transition
//! and the first depth-first accepting paths, their flip / truncate /
//! varbit-extreme / lookahead / extend mutants, and a constant-planted
//! random tail; see `ph_core::fuzz`).  Any divergence is ddmin-shrunk and
//! reported with its state paths and first differing dictionary field.
//!
//! Environment knobs:
//!
//! * `PH_FILTER=MPLS` — restrict cases by substring.
//! * `PH_TIMEOUT_SECS` — synthesis budget per case (default 30).
//! * `PH_FUZZ_SYNTH=0` — skip synthesis and fuzz only the baseline
//!   translation (the fast CI smoke mode).
//! * `PH_CACHE_DIR` — enables the `ph-svc` synthesis-result cache for the
//!   per-case synthesis (the fuzzing itself always runs fresh).
//! * `PH_FUZZ_CORRUPT=1` — mutation-testing mode: instead of checking the
//!   real programs, flip each entry's `next` in the baseline translation
//!   of every case in turn, run every flip through the final gate of
//!   `synthesize()` (`ph_core::fuzz::check_e2e` at its budget), and
//!   report caught/total per case.  A case fails unless at least one flip
//!   is caught with a shrunk witness (some flips are inert: shadowed
//!   entries).
//!
//! Exits non-zero on any divergence (normal mode) or any uncaught
//! corruption (corrupt mode), so CI can gate on it.  Besides the stdout
//! table, a machine-readable `results/fuzz_e2e.json` records every case
//! with its counters and full divergence reports.

use ph_bench::{jobs_from_args, par_map, report, Config};
use ph_core::fuzz::{check_e2e, fuzz, FuzzConfig, FuzzReport, GATE_PACKETS};
use ph_core::{OptConfig, SynthParams, Synthesizer};
use ph_hw::{DeviceProfile, HwNext, TcamProgram};
use ph_obs::{Json, Level};
use std::time::Instant;

/// Corruption candidates: each entry's action flipped in turn
/// (Accept/State → Reject, Reject → Accept).  Returns the corrupted
/// program and a human-readable description of the mutation.
fn corruptions(program: &TcamProgram) -> Vec<(TcamProgram, String)> {
    let mut out = Vec::new();
    for (si, st) in program.states.iter().enumerate() {
        for (ei, e) in st.entries.iter().enumerate() {
            let mut p = program.clone();
            p.states[si].entries[ei].next = match e.next {
                HwNext::Reject => HwNext::Accept,
                _ => HwNext::Reject,
            };
            out.push((
                p,
                format!(
                    "state {} entry {} ({}) next flipped",
                    st.name, ei, e.pattern
                ),
            ));
        }
    }
    out
}

struct CaseOutcome {
    report: FuzzReport,
    subjects: Vec<String>,
    synth_note: Option<String>,
    /// Corrupt mode: description of the first caught mutation, or `None`
    /// when every candidate slipped through.
    caught: Option<String>,
    /// Corrupt mode: mutations tried (`report.stats.divergences` of them
    /// were caught).
    mutants: usize,
    time_s: f64,
}

fn main() {
    let config = Config::from_env();
    let jobs = jobs_from_args();
    let tracer = config.install();
    let synth_budget = config.timeout(30);
    let filter = config.filter.as_str();
    let (do_synth, corrupt) = (config.fuzz_synth, config.fuzz_corrupt);
    let cache = config.cache();
    let device = DeviceProfile::tofino();

    let cases: Vec<_> = ph_benchmarks::registry()
        .into_iter()
        .filter(|c| c.name.contains(filter))
        .collect();

    println!(
        "Differential fuzzing oracle over {} cases ({} mode, synth {})\n",
        cases.len(),
        if corrupt { "corrupt" } else { "check" },
        if do_synth && !corrupt { "on" } else { "off" }
    );
    println!(
        "{:<34} | {:>8} {:>6} {:>6} {:>8} {:>8} | subjects",
        "Program Name", "packets", "seeds", "incomp", "diverge", "time(s)"
    );

    let t0 = Instant::now();
    let outcomes = par_map(jobs, &cases, |case| {
        let t = tracer.with_branch(&case.name);
        let _g = ph_obs::set_thread_tracer(t.clone());
        t.msg_with(Level::Info, || format!("fuzz_e2e: running {}", case.name));
        let started = Instant::now();

        let direct = ph_baseline::translate::direct_translate(&case.spec, &device);

        if corrupt {
            // Mutation testing through the gate `synthesize()` runs, at its
            // seed and budget: every flip is tried, the first caught one's
            // shrunk witness is kept (the gate names its subject "synth").
            let seed = SynthParams::default().seed;
            let mut report = FuzzReport {
                stats: Default::default(),
                divergences: Vec::new(),
            };
            let mut caught = None;
            let candidates = corruptions(&direct);
            for (bad, what) in &candidates {
                let r = check_e2e(&case.spec, bad, seed, GATE_PACKETS).map_or_else(
                    |refused| *refused,
                    |stats| FuzzReport {
                        stats,
                        divergences: Vec::new(),
                    },
                );
                if caught.is_none() && !r.clean() {
                    caught = Some(what.clone());
                    report.divergences = r.divergences;
                    for d in &mut report.divergences {
                        d.subject = "corrupt-direct".into();
                    }
                }
                report.stats.packets += r.stats.packets;
                report.stats.seeds = r.stats.seeds;
                report.stats.incomparable += r.stats.incomparable;
                report.stats.divergences += r.stats.divergences;
                report.stats.shrink_steps += r.stats.shrink_steps;
            }
            return CaseOutcome {
                report,
                subjects: vec!["corrupt-direct".into()],
                synth_note: None,
                caught,
                mutants: candidates.len(),
                time_s: started.elapsed().as_secs_f64(),
            };
        }

        let mut subjects = vec!["direct".to_string()];
        let mut synth_note = None;
        let synthesized = if do_synth {
            let r = Synthesizer::new(device.clone(), OptConfig::all())
                .with_params(SynthParams {
                    timeout: Some(synth_budget),
                    cache: cache.clone(),
                    ..Default::default()
                })
                .synthesize(&case.spec);
            match r {
                Ok(out) => {
                    subjects.push("synth".into());
                    Some(out.program)
                }
                Err(e) => {
                    synth_note = Some(format!("synthesis skipped: {e}"));
                    None
                }
            }
        } else {
            None
        };

        let mut programs: Vec<(&str, &TcamProgram)> = vec![("direct", &direct)];
        if let Some(p) = &synthesized {
            programs.push(("synth", p));
        }
        let report = fuzz(&case.spec, &programs, &FuzzConfig::default());
        CaseOutcome {
            report,
            subjects,
            synth_note,
            caught: None,
            mutants: 0,
            time_s: started.elapsed().as_secs_f64(),
        }
    });

    let mut rows_json: Vec<Json> = Vec::new();
    let mut total_packets = 0u64;
    let mut total_divergences = 0u64;
    let mut total_shrink_steps = 0u64;
    let mut uncaught: Vec<&str> = Vec::new();

    for (case, o) in cases.iter().zip(&outcomes) {
        total_packets += o.report.stats.packets;
        total_divergences += o.report.stats.divergences;
        total_shrink_steps += o.report.stats.shrink_steps;
        if corrupt && o.caught.is_none() {
            uncaught.push(&case.name);
        }

        let mut note = o.subjects.join("+");
        if let Some(n) = &o.synth_note {
            note = format!("{note} ({n})");
        }
        if corrupt {
            let n = o.report.stats.divergences;
            note = match &o.caught {
                Some(what) => format!("caught {n}/{}, first: {what}", o.mutants),
                None => format!("UNCAUGHT (0/{})", o.mutants),
            };
        }
        println!(
            "{:<34} | {:>8} {:>6} {:>6} {:>8} {:>8.2} | {}",
            case.name,
            o.report.stats.packets,
            o.report.stats.seeds,
            o.report.stats.incomparable,
            o.report.stats.divergences,
            o.time_s,
            note
        );
        for d in &o.report.divergences {
            if corrupt {
                println!("    witness: {d}");
            } else {
                println!("    DIVERGENCE: {d}");
            }
        }

        rows_json.push(
            Json::obj()
                .with("name", case.name.as_str())
                .with(
                    "subjects",
                    Json::Arr(o.subjects.iter().map(|s| Json::from(s.as_str())).collect()),
                )
                .with("fuzz", o.report.stats.to_json())
                .with(
                    "divergences",
                    Json::Arr(o.report.divergences.iter().map(|d| d.to_json()).collect()),
                )
                .with(
                    "synth_note",
                    match &o.synth_note {
                        Some(n) => Json::from(n.as_str()),
                        None => Json::Null,
                    },
                )
                .with(
                    "caught",
                    match &o.caught {
                        Some(w) => Json::from(w.as_str()),
                        None => Json::Null,
                    },
                )
                .with("mutants", o.mutants)
                .with("time_s", o.time_s),
        );
    }

    let wall = t0.elapsed().as_secs_f64();
    let pps = total_packets as f64 / wall.max(1e-9);
    println!(
        "\n{} packets in {:.2}s ({:.0} packets/s), {} divergences, {} shrink steps",
        total_packets, wall, pps, total_divergences, total_shrink_steps
    );
    if corrupt {
        if uncaught.is_empty() {
            println!("mutation test: every case had a planted corruption caught and shrunk");
        } else {
            println!("mutation test FAILED: corruption not caught on {uncaught:?}");
        }
    }

    let doc = report::metadata("fuzz_e2e")
        .with("mode", if corrupt { "corrupt" } else { "check" })
        .with("synth", do_synth && !corrupt)
        .with("filter", filter)
        .with("jobs", jobs as u64)
        .with("packet_budget", if corrupt { GATE_PACKETS } else { 0 })
        .with("rows", Json::Arr(rows_json))
        .with(
            "summary",
            Json::obj()
                .with("cases", cases.len())
                .with("packets", total_packets)
                .with("packets_per_sec", pps)
                .with("divergences", total_divergences)
                .with("shrink_steps", total_shrink_steps)
                .with("wall_s", wall)
                .with(
                    "uncaught",
                    Json::Arr(uncaught.iter().map(|&n| Json::from(n)).collect()),
                ),
        );
    match report::write_results(&config.results_dir, "fuzz_e2e", &doc) {
        Ok(path) => println!("structured results: {}", path.display()),
        Err(e) => eprintln!("failed to write results file: {e}"),
    }
    tracer.flush();

    let failed = if corrupt {
        !uncaught.is_empty()
    } else {
        total_divergences > 0
    };
    if failed {
        std::process::exit(1);
    }
}
