//! Clause-arena regression tests: bounded memory under long incremental
//! churn and relocation correctness under a forced GC.
//!
//! The arena deletes by tombstone and reclaims by mark-compact GC, so the
//! user-visible guarantee these tests pin is *boundedness*: a long-lived
//! incremental session (the `phd` daemon case) must not grow its arena
//! without bound even though every simplification pass and learnt-database
//! reduction leaves garbage behind.

use ph_sat::{parse_dimacs, write_dimacs, Lit, Solver, Var};

type RClause = Vec<(usize, bool)>;

fn random_clauses(rng: &mut ph_bits::Rng, nv: usize, nc: usize, max_len: usize) -> Vec<RClause> {
    (0..nc)
        .map(|_| {
            let len = rng.gen_range(2..=max_len);
            (0..len)
                .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                .collect()
        })
        .collect()
}

/// The tombstone-leak regression test: a 1k-iteration incremental session
/// (add clauses → solve/learn → `simplify()` → repeat) keeps arena bytes
/// bounded and actually exercises the collector.
///
/// Boundedness is asserted structurally, not against a magic constant:
/// after every `simplify()` (which ends in `maybe_gc`) the tombstoned
/// fraction of the arena must be at or below the collection threshold, so
/// total arena bytes stay within a constant factor of the live clause
/// database — which the solve/simplify churn itself keeps bounded.
#[test]
fn long_incremental_session_keeps_arena_bounded() {
    let mut rng = ph_bits::Rng::seed_from_u64(0xaaea_0b0b);
    let mut s = Solver::new();
    s.set_simplify(true);
    let nv = 40;
    let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
    // The whole block is external interface: assumptions and clause
    // additions keep using it across passes.
    for &v in &vars {
        s.freeze(v);
    }
    // A moderate threshold so the 1k iterations trigger many collections.
    s.set_gc_waste_limit(0.1);

    let mut peak_bytes = 0usize;
    for round in 0..1000 {
        for c in random_clauses(&mut rng, nv, 3, 4) {
            if !s.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg))) {
                break;
            }
        }
        let n_assume = rng.gen_range(0..=2usize);
        let assumes: Vec<Lit> = (0..n_assume)
            .map(|_| Lit::new(vars[rng.gen_range(0..nv)], rng.gen_bool(0.5)))
            .collect();
        let _ = s.solve_with_assumptions(&assumes);
        if !s.simplify() {
            break; // random clauses eventually went unsat at the top level
        }
        let bytes = s.stats().arena_bytes as usize;
        peak_bytes = peak_bytes.max(bytes);
        // The invariant `maybe_gc` enforces, re-checked from the outside
        // (+64 bytes of slack for the clause deleted *by* being learnt
        // unit/satisfied after the collection point).
        assert!(
            s.arena_waste() <= bytes / 10 + 64,
            "round {round}: waste {} exceeds GC threshold of arena size {}",
            s.arena_waste(),
            bytes
        );
    }
    let stats = s.stats();
    assert!(
        stats.arena_gcs > 0,
        "1k churn iterations never triggered a collection (peak {peak_bytes} bytes)"
    );
    // Absolute sanity bound: 40 vars × 3 clauses/round cannot legitimately
    // need tens of megabytes once tombstones are reclaimed.
    assert!(
        peak_bytes < 8 << 20,
        "arena peaked at {peak_bytes} bytes — unbounded growth"
    );
}

/// `arena_waste` starts at zero, grows when simplification tombstones
/// clauses, and `force_gc` reclaims it without changing the clause set.
#[test]
fn forced_gc_reclaims_waste_and_preserves_clauses() {
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..10).map(|_| s.new_var()).collect();
    assert_eq!(s.arena_waste(), 0);
    // A subsumption pair per variable: (a ∨ b) subsumes (a ∨ b ∨ c).
    for w in vars.windows(3) {
        s.add_clause([Lit::pos(w[0]), Lit::pos(w[1])]);
        s.add_clause([Lit::pos(w[0]), Lit::pos(w[1]), Lit::pos(w[2])]);
    }
    for &v in &vars {
        s.freeze(v);
    }
    let before_clauses = s.num_clauses();
    assert!(s.simplify());
    let after_clauses = s.num_clauses();
    assert!(after_clauses < before_clauses, "nothing was subsumed");

    // Defeat the automatic collection so the waste is observable, then
    // collect explicitly.
    let mut t = Solver::new();
    t.set_gc_waste_limit(f64::INFINITY);
    let tv: Vec<Var> = (0..10).map(|_| t.new_var()).collect();
    for w in tv.windows(3) {
        t.add_clause([Lit::pos(w[0]), Lit::pos(w[1])]);
        t.add_clause([Lit::pos(w[0]), Lit::pos(w[1]), Lit::pos(w[2])]);
    }
    for &v in &tv {
        t.freeze(v);
    }
    assert!(t.simplify());
    assert!(t.arena_waste() > 0, "subsumption left no tombstones");
    let live = write_dimacs(&t);
    let gcs_before = t.stats().arena_gcs;
    t.force_gc();
    assert_eq!(t.stats().arena_gcs, gcs_before + 1);
    assert_eq!(t.arena_waste(), 0, "collection left waste behind");
    assert_eq!(write_dimacs(&t), live, "GC changed the clause set");
    // The solver still works after relocation.
    assert_eq!(t.solve(), Some(true));
}

/// DIMACS round-trip across a forced GC: parse → tombstone via solving and
/// simplification → force a collection → write → reparse must preserve the
/// clause set and the verdict.
#[test]
fn dimacs_round_trip_survives_forced_gc() {
    let mut rng = ph_bits::Rng::seed_from_u64(0xd13a_c56c);
    for round in 0..40 {
        let nv = rng.gen_range(6..=14usize);
        let nc = rng.gen_range(nv..=nv * 4);
        let mut text = format!("p cnf {nv} {nc}\n");
        for _ in 0..nc {
            let len = rng.gen_range(1..=3usize);
            for _ in 0..len {
                let v = rng.gen_range(1..=nv) as i64;
                text.push_str(&format!("{} ", if rng.gen_bool(0.5) { -v } else { v }));
            }
            text.push_str("0\n");
        }
        let Ok((mut fresh, _)) = parse_dimacs(&text) else {
            continue;
        };
        let verdict = fresh.solve();
        let (mut s, _) = parse_dimacs(&text).unwrap();
        // Churn the arena (simplify tombstones subsumed/satisfied clauses),
        // then relocate everything.  A solver that *solved* first may hold
        // its refutation in learnt clauses, which the DIMACS export does
        // not carry — so the round trip starts from the simplified-only
        // database, whose export is equisatisfiable by construction.
        if !s.simplify() {
            assert_eq!(verdict, Some(false), "round {round}: bogus top-level unsat");
            continue;
        }
        s.force_gc();
        let out = write_dimacs(&s);
        let Ok((mut s2, _)) = parse_dimacs(&out) else {
            panic!("round {round}: GC'd solver wrote unparsable DIMACS");
        };
        // The rewritten formula is the simplified one — equisatisfiable,
        // not identical — so the pinned property is the verdict.
        assert_eq!(s2.solve(), verdict, "round {round}: verdict changed");
        // And writing again after the round trip is byte-stable.
        s2.force_gc();
        assert_eq!(write_dimacs(&s2), out, "round {round}: unstable output");
    }
}

/// Collections *during search*: with a zero waste threshold every
/// learnt-database reduction relocates the arena while the trail holds
/// reason clauses above decision level 0 — the references conflict
/// analysis dereferences without a liveness check.  Verdicts must match a
/// solver with the default threshold, and models must satisfy the formula.
#[test]
fn collections_during_search_keep_verdicts_and_models() {
    let mut rng = ph_bits::Rng::seed_from_u64(0x5ea2_c6c0);
    let nv = 200usize;
    let mut gcs = 0;
    for round in 0..4 {
        // Random 3-SAT at the phase transition: 5k-15k conflicts, so the
        // 4000-learnt reduction runs mid-search.
        let clauses: Vec<RClause> = (0..852)
            .map(|_| {
                (0..3)
                    .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect();
        let solve = |gc_limit: Option<f64>| {
            let mut s = Solver::new();
            s.set_simplify(false);
            if let Some(frac) = gc_limit {
                s.set_gc_waste_limit(frac);
            }
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            for c in &clauses {
                s.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)));
            }
            let verdict = s.solve();
            let model_ok = verdict != Some(true)
                || clauses
                    .iter()
                    .all(|c| c.iter().any(|&(v, neg)| s.value(vars[v]) == Some(!neg)));
            (verdict, model_ok, s.stats().arena_gcs)
        };
        let (expected, _, _) = solve(None);
        let (got, model_ok, round_gcs) = solve(Some(0.0));
        assert_eq!(
            got, expected,
            "round {round}: verdict changed under forced GC"
        );
        assert!(model_ok, "round {round}: model violates the formula");
        gcs += round_gcs;
    }
    assert!(gcs > 0, "no collection ran during search");
}
