//! Differential tests of the CDCL solver.
//!
//! Small one-shot instances must agree with exhaustive search.  An
//! incremental solver, queried between clause batches and under
//! assumptions, must agree verdict-for-verdict with a fresh solver given the
//! same clauses plus the assumptions as units, also when every
//! learnt-database reduction forces a mark-compact collection mid-session.
//! Every satisfiable model must satisfy every clause.

use ph_sat::{Lit, SolveResult, Solver, Var};

/// A clause as (variable index, negated) pairs.
type RClause = Vec<(usize, bool)>;

fn random_clauses(rng: &mut ph_bits::Rng, nv: usize, nc: usize, max_len: usize) -> Vec<RClause> {
    (0..nc)
        .map(|_| {
            let len = rng.gen_range(1..=max_len);
            (0..len)
                .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// A solver over `nv` fresh variables holding `clauses`, and whether every
/// `add_clause` succeeded.
fn build(nv: usize, clauses: &[RClause]) -> (Solver, Vec<Var>, bool) {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
    let mut ok = true;
    for c in clauses {
        ok &= s.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)));
    }
    (s, vars, ok)
}

fn model_satisfies(s: &Solver, vars: &[Var], clauses: &[RClause]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|&(v, neg)| s.value(vars[v]).expect("model value missing") != neg)
    })
}

/// Whether some assignment of `nv` variables satisfies `clauses`, by
/// enumerating all of them.
fn satisfiable_by_enumeration(nv: usize, clauses: &[RClause]) -> bool {
    (0u32..1 << nv).any(|bits| {
        clauses
            .iter()
            .all(|c| c.iter().any(|&(v, neg)| (bits >> v & 1 == 1) != neg))
    })
}

/// One-shot solves: 600 random instances over at most 12 variables; the
/// verdict must match exhaustive search and every model must satisfy the
/// clauses.
#[test]
fn random_cnf_agrees_with_exhaustive_search() {
    let mut rng = ph_bits::Rng::seed_from_u64(0x6c05_1397);
    for round in 0..600 {
        let nv = rng.gen_range(3..=12usize);
        let nc = rng.gen_range(1..=nv * 4);
        let max_len = rng.gen_range(2..=4usize);
        let clauses = random_clauses(&mut rng, nv, nc, max_len);

        let (mut s, vars, ok) = build(nv, &clauses);
        let got = ok && s.solve() == Some(true);
        assert_eq!(
            got,
            satisfiable_by_enumeration(nv, &clauses),
            "round {round}: {clauses:?}"
        );
        if got {
            assert!(
                model_satisfies(&s, &vars, &clauses),
                "round {round}: model violates clauses {clauses:?}"
            );
        }
    }
}

/// Incremental use: clauses arrive in batches with solves (some under
/// assumptions) in between.  Every query is checked against a fresh solver
/// given the same clauses plus the assumptions as units.
#[test]
fn incremental_batches_agree_with_fresh_solver() {
    let mut rng = ph_bits::Rng::seed_from_u64(0xd1ff_ba7c);
    for round in 0..80 {
        let nv = rng.gen_range(4..=16usize);
        let (mut inc, vars, _) = build(nv, &[]);
        let mut all_clauses: Vec<RClause> = Vec::new();
        let mut inc_ok = true;

        for batch in 0..5 {
            let nc = rng.gen_range(1..=nv);
            let fresh_clauses = random_clauses(&mut rng, nv, nc, 3);
            for c in &fresh_clauses {
                inc_ok &= inc.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)));
            }
            all_clauses.extend(fresh_clauses);
            let n_assume = rng.gen_range(0..=3usize);
            let assumes: Vec<(usize, bool)> = (0..n_assume)
                .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                .collect();
            let got = inc_ok && query(&mut inc, &vars, &all_clauses, &assumes);
            assert_eq!(
                got,
                fresh_verdict(nv, &all_clauses, &assumes),
                "round {round} batch {batch}: {all_clauses:?} assuming {assumes:?}"
            );
        }
    }
}

/// Incremental churn long enough to reach learnt-database reduction, with a
/// zero waste threshold so every reduction relocates the whole arena
/// between and during queries.  The base is planted 3-SAT near the
/// satisfiability threshold (every clause satisfied by a hidden
/// assignment), so the session stays satisfiable at the top level while
/// assumption queries conflict, learn and come out both ways.  Every
/// verdict is checked against a fresh solver at the default GC threshold.
#[test]
fn incremental_batches_agree_under_forced_gc() {
    let mut rng = ph_bits::Rng::seed_from_u64(0xba7c_d1ff);
    let nv = 150;
    let hidden: Vec<bool> = (0..nv).map(|_| rng.gen_bool(0.5)).collect();
    let planted = |rng: &mut ph_bits::Rng, len: usize| loop {
        let c: RClause = (0..len)
            .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
            .collect();
        if c.iter().any(|&(v, neg)| hidden[v] != neg) {
            return c;
        }
    };
    let mut all_clauses: Vec<RClause> = (0..630).map(|_| planted(&mut rng, 3)).collect();
    let (mut inc, vars, ok) = build(nv, &all_clauses);
    assert!(ok);
    inc.set_gc_waste_limit(0.0);

    let (mut sat, mut unsat) = (0, 0);
    for round in 0..400 {
        let c = planted(&mut rng, 4);
        assert!(inc.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg))));
        all_clauses.push(c);
        let n_assume = rng.gen_range(2..=5usize);
        let assumes: Vec<(usize, bool)> = (0..n_assume)
            .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
            .collect();
        let got = query(&mut inc, &vars, &all_clauses, &assumes);
        assert_eq!(
            got,
            fresh_verdict(nv, &all_clauses, &assumes),
            "round {round}: verdict changed assuming {assumes:?}"
        );
        if got {
            sat += 1;
        } else {
            unsat += 1;
        }
    }
    let stats = inc.stats();
    assert!(
        stats.arena_gcs > 0,
        "no collection ran in {} conflicts",
        stats.conflicts
    );
    assert!(sat > 0 && unsat > 0, "{sat} sat and {unsat} unsat queries");
}

/// Solves `inc` under `assumes` and, when satisfiable, checks its model
/// against `clauses` and the assumptions.
fn query(inc: &mut Solver, vars: &[Var], clauses: &[RClause], assumes: &[(usize, bool)]) -> bool {
    let lits: Vec<Lit> = assumes
        .iter()
        .map(|&(v, neg)| Lit::new(vars[v], neg))
        .collect();
    let sat = inc.solve_with_assumptions(&lits) == SolveResult::Sat;
    if sat {
        assert!(
            model_satisfies(inc, vars, clauses),
            "model violates the clauses"
        );
        for &(v, neg) in assumes {
            assert_eq!(
                inc.value(vars[v]).unwrap(),
                !neg,
                "model breaks an assumption"
            );
        }
    }
    sat
}

/// The verdict of a fresh solver given `clauses` plus `assumes` as units.
fn fresh_verdict(nv: usize, clauses: &[RClause], assumes: &[(usize, bool)]) -> bool {
    let mut with_units = clauses.to_vec();
    with_units.extend(assumes.iter().map(|&a| vec![a]));
    let (mut fresh, _, ok) = build(nv, &with_units);
    ok && fresh.solve() == Some(true)
}
