//! Replays dumped DIMACS queries with the CNF simplifier on and off.
//!
//! ```text
//! PH_DUMP_CNF=/tmp/q cargo run --release -p ph-bench --bin table3
//! cargo run --release -p ph-bench --bin cnf_replay -- /tmp/q
//! ```
//!
//! An end-to-end on/off comparison is confounded by CEGIS trajectory
//! divergence: a different model from one query changes every subsequent
//! counterexample, so the two legs solve *different* query sequences.
//! Replaying a dumped stream solves byte-identical formulas on both legs,
//! isolating the solver-level effect of simplification.  While dumping,
//! every solver runs unsimplified, so the files hold the raw blasted CNF
//! rather than an already-simplified database.
//!
//! Each `query-*.cnf` is solved by a fresh solver per leg (the replay is
//! one-shot, so the scheduler's conflict gate applies per query, as it
//! would in a non-incremental setting).  Assumptions recorded in the
//! leading `c assumptions:` comment are honored.  A per-query conflict
//! budget (`PH_REPLAY_CONFLICT_BUDGET`, default 200000) bounds runaway
//! queries; budget-exhausted queries are reported and excluded from the
//! ratio.

use ph_bench::Config;
use ph_sat::{parse_dimacs, Lit, SolveResult, Var};
use std::time::Instant;

fn parse_assumptions(text: &str) -> Vec<i64> {
    text.lines()
        .take_while(|l| l.starts_with('c'))
        .filter_map(|l| l.strip_prefix("c assumptions:"))
        .flat_map(|rest| rest.split_whitespace().filter_map(|t| t.parse().ok()))
        .collect()
}

/// Solves one dump on a fresh solver; returns (verdict, seconds,
/// propagations, decisions).
fn run_leg(
    text: &str,
    assumes: &[i64],
    simplify: bool,
    budget: u64,
) -> (SolveResult, f64, u64, u64) {
    let (mut s, nv) = parse_dimacs(text).expect("dump should be valid DIMACS");
    s.set_simplify(simplify);
    s.set_conflict_budget(Some(budget));
    let lits: Vec<Lit> = assumes
        .iter()
        .map(|&v| {
            let idx = v.unsigned_abs() as usize - 1;
            assert!(idx < nv, "assumption {v} out of range");
            Lit::new(Var(idx as u32), v < 0)
        })
        .collect();
    let t0 = Instant::now();
    if simplify {
        // One-shot solving is the classic SatELite setting: preprocess up
        // front rather than waiting for the incremental scheduler's
        // conflict evidence.  Assumption variables must survive.
        for l in &lits {
            s.freeze(l.var());
        }
        s.simplify();
    }
    let r = s.solve_with_assumptions(&lits);
    let st = s.stats();
    (r, t0.elapsed().as_secs_f64(), st.propagations, st.decisions)
}

fn main() {
    let config = Config::from_env();
    ph_obs::init_global(config.tracer());
    let budget = config.replay_conflict_budget;
    let dir = match std::env::args().nth(1) {
        Some(d) => d,
        None => {
            eprintln!("usage: cnf_replay <dir with query-*.cnf dumps>");
            std::process::exit(2);
        }
    };

    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("cannot read {dir}: {e}"))
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "cnf"))
        .collect();
    files.sort();
    if files.is_empty() {
        eprintln!("cnf_replay: no .cnf files in {dir}");
        std::process::exit(2);
    }

    let (mut t_off, mut t_on) = (0.0f64, 0.0f64);
    let (mut props_off, mut props_on) = (0u64, 0u64);
    let (mut decs_off, mut decs_on) = (0u64, 0u64);
    let (mut solved, mut skipped, mut mismatches) = (0usize, 0usize, 0usize);
    for f in &files {
        let text = std::fs::read_to_string(f).expect("readable dump");
        let assumes = parse_assumptions(&text);
        let (r_off, s_off, p_off, d_off) = run_leg(&text, &assumes, false, budget);
        let (r_on, s_on, p_on, d_on) = run_leg(&text, &assumes, true, budget);
        if r_off == SolveResult::Unknown || r_on == SolveResult::Unknown {
            skipped += 1;
            continue;
        }
        if r_off != r_on {
            // A verdict disagreement here is a soundness bug; the
            // differential fuzz suites exist to keep this at zero.
            mismatches += 1;
            eprintln!(
                "VERDICT MISMATCH on {}: off={r_off:?} on={r_on:?}",
                f.display()
            );
        }
        solved += 1;
        t_off += s_off;
        t_on += s_on;
        props_off += p_off;
        props_on += p_on;
        decs_off += d_off;
        decs_on += d_on;
    }

    println!(
        "cnf_replay: {} queries solved ({} over conflict budget, {} mismatches)",
        solved, skipped, mismatches
    );
    println!(
        "  simplify off: {t_off:.3}s   simplify on: {t_on:.3}s   speed-up: {:.3}x",
        t_off / t_on.max(1e-9)
    );
    println!(
        "  throughput off: {:.2}M props/s ({:.2}K decisions/s)   on: {:.2}M props/s \
         ({:.2}K decisions/s)",
        props_off as f64 / t_off.max(1e-9) / 1e6,
        decs_off as f64 / t_off.max(1e-9) / 1e3,
        props_on as f64 / t_on.max(1e-9) / 1e6,
        decs_on as f64 / t_on.max(1e-9) / 1e3,
    );
    if mismatches > 0 {
        std::process::exit(1);
    }
}
