//! Incremental sessions against fresh solvers at the bit-vector level.
//!
//! One SMT solver receives random formulas across rounds mixing assertions,
//! scoped push/pop queries and `check_assuming`; every query must get the
//! verdict of a fresh solver given the same active assertions plus the
//! query's terms, and every SAT model must evaluate every asserted term (and
//! the assumed one) to true.

use ph_bits::Rng;
use ph_smt::{Smt, SmtResult, Term};

const WIDTH: u32 = 6;
const NVARS: usize = 4;

/// Builds a random boolean term over `vars` (all `WIDTH` bits wide).
fn random_pred(rng: &mut Rng, s: &mut Smt, vars: &[Term], depth: usize) -> Term {
    let vec = random_vec(rng, s, vars, depth);
    let other = random_vec(rng, s, vars, depth);
    match rng.gen_range(0..4u32) {
        0 => s.eq(vec, other),
        1 => s.ne(vec, other),
        2 => s.ult(vec, other),
        _ => s.ule(vec, other),
    }
}

/// Builds a random `WIDTH`-bit term over `vars`.
fn random_vec(rng: &mut Rng, s: &mut Smt, vars: &[Term], depth: usize) -> Term {
    if depth == 0 || rng.gen_bool(0.35) {
        return if rng.gen_bool(0.3) {
            let c = rng.gen_range(0..(1u64 << WIDTH));
            s.const_u64(c, WIDTH)
        } else {
            vars[rng.gen_range(0..vars.len())]
        };
    }
    let a = random_vec(rng, s, vars, depth - 1);
    let b = random_vec(rng, s, vars, depth - 1);
    match rng.gen_range(0..5u32) {
        0 => s.and(a, b),
        1 => s.or(a, b),
        2 => s.xor(a, b),
        3 => s.add(a, b),
        _ => {
            let c = random_pred(rng, s, vars, depth - 1);
            s.ite(c, a, b)
        }
    }
}

fn vars(s: &mut Smt) -> Vec<Term> {
    (0..NVARS).map(|i| s.var(&format!("v{i}"), WIDTH)).collect()
}

/// The predicate `seed` generates, built in `s`.
fn pred(seed: u64, s: &mut Smt, vars: &[Term]) -> Term {
    random_pred(&mut Rng::seed_from_u64(seed), s, vars, 3)
}

/// The verdict of a fresh solver asserting every predicate of `seeds`.
fn fresh_check(seeds: &[u64]) -> SmtResult {
    let mut s = Smt::new();
    let vars = vars(&mut s);
    for &seed in seeds {
        let p = pred(seed, &mut s, &vars);
        s.assert(p);
    }
    s.check()
}

/// 200 random incremental sessions: every query must agree with a fresh
/// solver, and models must satisfy what was asserted.
#[test]
fn random_bitvector_sessions_agree_with_fresh_solver() {
    let mut rng = Rng::seed_from_u64(0x5a7e_117e);
    for round in 0..200 {
        let mut inc = Smt::new();
        let ivars = vars(&mut inc);
        let seed = rng.next_u64();
        // Predicates asserted outside any scope: their seeds (to rebuild
        // them in a fresh solver) and their terms in `inc`.
        let mut asserted: Vec<u64> = Vec::new();
        let mut asserted_terms: Vec<Term> = Vec::new();

        for step in 0..6 {
            let step_seed = seed ^ step;
            let q = pred(step_seed, &mut inc, &ivars);
            let with_q = || {
                let mut seeds = asserted.clone();
                seeds.push(step_seed);
                seeds
            };
            match step % 3 {
                0 => {
                    inc.assert(q);
                    asserted.push(step_seed);
                    asserted_terms.push(q);
                    let got = inc.check();
                    assert_eq!(
                        got,
                        fresh_check(&asserted),
                        "round {round} step {step}: assert verdicts diverged"
                    );
                    if got == SmtResult::Sat {
                        for &t in &asserted_terms {
                            assert!(
                                inc.model_bool(t),
                                "round {round} step {step}: model violates an asserted term"
                            );
                        }
                    }
                }
                1 => {
                    let got = inc.check_assuming(&[q]);
                    assert_eq!(
                        got,
                        fresh_check(&with_q()),
                        "round {round} step {step}: assuming verdicts diverged"
                    );
                    if got == SmtResult::Sat {
                        assert!(
                            inc.model_bool(q),
                            "round {round} step {step}: assumption false"
                        );
                        for &t in &asserted_terms {
                            assert!(
                                inc.model_bool(t),
                                "round {round} step {step}: model violates an asserted term"
                            );
                        }
                    }
                }
                _ => {
                    inc.push();
                    inc.assert(q);
                    assert_eq!(
                        inc.check(),
                        fresh_check(&with_q()),
                        "round {round} step {step}: scoped verdicts diverged"
                    );
                    inc.pop();
                    assert_eq!(
                        inc.check(),
                        fresh_check(&asserted),
                        "round {round} step {step}: post-pop verdicts diverged"
                    );
                }
            }
        }
    }
}

/// Reading the model of variables no assertion mentions: one never lowered
/// reads zero, one lowered early reads without panicking, and constraining
/// the lowered one afterwards works.
#[test]
fn unmentioned_variable_reads_zero_until_constrained() {
    let mut s = Smt::new();
    let x = s.var("x", 8);
    let y = s.var("y", 8);
    let z = s.var("z", 8);
    s.lower(y);
    let c = s.const_u64(42, 8);
    let eq = s.eq(x, c);
    s.assert(eq);
    assert_eq!(s.check(), SmtResult::Sat);
    assert_eq!(s.model_u64(x), 42);
    assert_eq!(s.model_u64(z), 0, "never lowered");
    let _ = s.model_u64(y);
    let c7 = s.const_u64(7, 8);
    let eq_y = s.eq(y, c7);
    s.assert(eq_y);
    assert_eq!(s.check(), SmtResult::Sat);
    assert_eq!(s.model_u64(y), 7);
}
