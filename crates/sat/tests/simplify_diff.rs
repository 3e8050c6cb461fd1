//! Differential fuzzing of the CNF simplification engine.
//!
//! The simplifying solver must agree verdict-for-verdict with the plain CDCL
//! solver on random formulas, and every satisfiable model — after
//! eliminated-variable reconstruction — must satisfy the *original* clauses,
//! not just the simplified ones.

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

fn build(nv: usize, clauses: &[RClause], simplify: bool) -> (Solver, Vec<Var>, bool) {
    let mut s = Solver::new();
    s.set_simplify(simplify);
    let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
    let mut ok = true;
    for c in clauses {
        ok &= s.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)));
    }
    (s, vars, ok)
}

/// GC-stress mode: a zero waste threshold makes every tombstone trigger a
/// full mark-compact collection, so the differential loops exercise clause
/// relocation (watch/reason/occurrence patching) on every simplification
/// and, in the plain solvers, on every learnt-database reduction.
fn force_gc_mode(s: &mut Solver, on: bool) {
    if on {
        s.set_gc_waste_limit(0.0);
    }
}

fn model_satisfies(s: &Solver, vars: &[Var], clauses: &[RClause]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|&(v, neg)| s.value(vars[v]).expect("model value missing") != neg)
    })
}

/// One-shot solves: 600 random instances, verdicts must match and SAT models
/// must satisfy the original (pre-simplification) clauses.
#[test]
fn random_cnf_simplified_agrees_with_plain() {
    run_random_cnf(false, 0x0005_1397_d1ff);
}

/// The same differential loop with every tombstone forcing a collection, so
/// inprocessing runs against a constantly relocating arena.
#[test]
fn random_cnf_agrees_under_forced_gc() {
    run_random_cnf(true, 0x6c05_1397);
}

fn run_random_cnf(gc: bool, seed: u64) {
    let mut rng = ph_bits::Rng::seed_from_u64(seed);
    for round in 0..600 {
        let nv = rng.gen_range(3..=24usize);
        let nc = rng.gen_range(1..=nv * 4);
        let max_len = rng.gen_range(2..=4usize);
        let clauses = random_clauses(&mut rng, nv, nc, max_len);

        let (mut plain, pvars, pok) = build(nv, &clauses, false);
        let (mut simp, svars, sok) = build(nv, &clauses, true);
        force_gc_mode(&mut plain, gc);
        force_gc_mode(&mut simp, gc);
        assert_eq!(pok, sok, "round {round}: add_clause verdicts diverged");
        // Instances this small never trip the conflict-based scheduler, so
        // force a pass — the point here is the engine, not the economics.
        if sok {
            simp.simplify();
        }
        let expected = pok && plain.solve() == Some(true);
        let got = sok && simp.solve() == Some(true);
        assert_eq!(got, expected, "round {round}: {clauses:?}");
        if got {
            assert!(
                model_satisfies(&simp, &svars, &clauses),
                "round {round}: reconstructed model violates original clauses {clauses:?}"
            );
            assert!(model_satisfies(&plain, &pvars, &clauses), "round {round}");
        }
    }
}

/// Incremental use: clauses arrive in batches with solves (some under
/// assumptions) in between, so preprocessing runs repeatedly over a database
/// it already simplified.  Every query is checked against a fresh plain
/// solver given the same clauses plus the assumptions as units.
#[test]
fn incremental_batches_agree_with_fresh_plain_solver() {
    run_incremental_batches(false, 0xd1ff_ba7c);
}

/// Incremental churn with forced collections: every batch's simplification
/// relocates the whole arena under live frozen variables and assumptions.
#[test]
fn incremental_batches_agree_under_forced_gc() {
    run_incremental_batches(true, 0xba7c_d1ff);
}

fn run_incremental_batches(gc: bool, seed: u64) {
    let mut rng = ph_bits::Rng::seed_from_u64(seed);
    for round in 0..80 {
        let nv = rng.gen_range(4..=16usize);
        let mut inc = Solver::new();
        inc.set_simplify(true);
        force_gc_mode(&mut inc, gc);
        let vars: Vec<Var> = (0..nv).map(|_| inc.new_var()).collect();
        // The whole variable block is external interface here: models are
        // read and assumptions chosen freely between batches.
        for &v in &vars {
            inc.freeze(v);
        }
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

            let mut with_units = all_clauses.clone();
            for &a in &assumes {
                with_units.push(vec![a]);
            }
            let (mut fresh, _, fok) = build(nv, &with_units, false);
            force_gc_mode(&mut fresh, gc);
            let expected = fok && fresh.solve() == Some(true);

            let lits: Vec<Lit> = assumes
                .iter()
                .map(|&(v, neg)| Lit::new(vars[v], neg))
                .collect();
            // Force a pass per batch so repeated incremental simplification
            // is exercised even though these instances are conflict-free.
            if inc_ok {
                inc.simplify();
            }
            let got = inc_ok && inc.solve_with_assumptions(&lits) == SolveResult::Sat;
            assert_eq!(
                got, expected,
                "round {round} batch {batch}: {all_clauses:?} assuming {assumes:?}"
            );
            if got {
                assert!(
                    model_satisfies(&inc, &vars, &all_clauses),
                    "round {round} batch {batch}: model violates original clauses"
                );
                for &(v, neg) in &assumes {
                    assert_eq!(inc.value(vars[v]).unwrap(), !neg);
                }
            }
        }
    }
}

/// The freeze contract, demonstrated both ways: in `(a ∨ b) ∧ (¬a ∨ c)` the
/// variable `a` has exactly one resolvent, so an unfrozen `a` is eliminated;
/// a frozen `a` survives and keeps answering assumption queries correctly.
#[test]
fn frozen_assumption_variable_is_not_eliminated() {
    let mk = || {
        let mut s = Solver::new();
        s.set_simplify(true);
        let a = s.new_var();
        let b = s.new_var();
        let c = s.new_var();
        s.add_clause([Lit::pos(a), Lit::pos(b)]);
        s.add_clause([Lit::neg(a), Lit::pos(c)]);
        (s, a, b, c)
    };

    // Without freezing, `a` is precisely the kind of variable bounded
    // elimination removes.
    let (mut plain, a, _, _) = mk();
    assert!(plain.simplify());
    assert!(
        plain.is_eliminated(a),
        "test premise broken: unfrozen variable was not eliminated"
    );

    // Frozen, it must survive and behave like a plain solver under every
    // assumption combination.
    let (mut s, a, b, c) = mk();
    s.freeze(a);
    assert!(s.simplify());
    assert!(!s.is_eliminated(a));
    assert_eq!(s.solve_with_assumptions(&[Lit::neg(a)]), SolveResult::Sat);
    assert_eq!(s.value(b), Some(true));
    assert_eq!(s.solve_with_assumptions(&[Lit::pos(a)]), SolveResult::Sat);
    assert_eq!(s.value(c), Some(true));
    // And the two-sided contradiction is still found.
    let mut t = Solver::new();
    t.set_simplify(true);
    let x = t.new_var();
    t.freeze(x);
    t.add_clause([Lit::pos(x)]);
    assert_eq!(t.solve_with_assumptions(&[Lit::neg(x)]), SolveResult::Unsat);
}

/// Models must be reconstructible for variables eliminated in an *earlier*
/// solve, including chains where an eliminated variable's saved clauses
/// mention a variable eliminated later.
#[test]
fn model_reconstruction_across_solves() {
    let mut s = Solver::new();
    s.set_simplify(true);
    let vs: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
    // Implication chain v0 -> v1 -> ... -> v5 with free endpoints: the
    // middle variables are classic elimination fodder (one resolvent each),
    // and chains of them exercise the reverse-order reconstruction.
    for w in vs.windows(2) {
        s.add_clause([Lit::neg(w[0]), Lit::pos(w[1])]);
    }
    let check_chain = |s: &Solver| {
        for w in vs.windows(2) {
            let (x, y) = (s.value(w[0]).unwrap(), s.value(w[1]).unwrap());
            assert!(!x || y, "model breaks implication {:?} -> {:?}", w[0], w[1]);
        }
    };
    assert!(s.simplify());
    assert_eq!(s.solve(), Some(true));
    check_chain(&s);
    // A second solve must still produce values for the eliminated middle.
    assert_eq!(s.solve(), Some(true));
    check_chain(&s);
}
