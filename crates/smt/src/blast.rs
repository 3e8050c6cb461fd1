//! Tseitin bit-blasting of the term DAG into CNF.
//!
//! Each term is lowered once to a vector of SAT literals (wire order, index 0
//! = most significant) and cached, so DAG sharing carries over to the CNF.
//! Compound operators become standard gate encodings: ripple-carry adders,
//! less-than chains, per-bit multiplexers.

use crate::term::{Op, Term, TermPool};
use ph_sat::{Lit, Solver};
use std::collections::HashMap;

/// Lowering effort counters (see [`crate::Smt::blast_stats`]).
#[derive(Clone, Copy, Default, Debug)]
pub struct BlastStats {
    /// Term-DAG nodes lowered to CNF so far.
    pub nodes_lowered: u64,
    /// Fresh SAT variables introduced for problem inputs (`Op::Var` bits).
    pub input_vars: u64,
    /// Fresh SAT variables introduced for Tseitin gates (everything else).
    pub gate_vars: u64,
}

pub(crate) struct Blaster {
    cache: HashMap<Term, Vec<Lit>>,
    true_lit: Option<Lit>,
    stats: BlastStats,
}

impl Blaster {
    pub fn new() -> Blaster {
        Blaster {
            cache: HashMap::new(),
            true_lit: None,
            stats: BlastStats::default(),
        }
    }

    pub fn stats(&self) -> BlastStats {
        self.stats
    }

    pub fn lits_of(&self, t: Term) -> Option<&Vec<Lit>> {
        self.cache.get(&t)
    }

    fn true_lit(&mut self, sat: &mut Solver) -> Lit {
        if let Some(l) = self.true_lit {
            return l;
        }
        let l = Lit::pos(sat.new_var());
        sat.add_clause([l]);
        self.true_lit = Some(l);
        l
    }

    /// Blasts a boolean (1-bit) term to a single literal.
    pub fn blast_bool(&mut self, pool: &TermPool, t: Term, sat: &mut Solver) -> Lit {
        debug_assert_eq!(pool.width(t), 1);
        self.blast(pool, t, sat)[0]
    }

    /// Blasts a term to its literal vector (cached).
    ///
    /// Iterative post-order traversal: CEGIS encodings chain thousands of
    /// dependent iterations, so recursing on the DAG would overflow the
    /// stack.
    pub fn blast(&mut self, pool: &TermPool, t: Term, sat: &mut Solver) -> Vec<Lit> {
        let mut stack = vec![t];
        while let Some(&cur) = stack.last() {
            if self.cache.contains_key(&cur) {
                stack.pop();
                continue;
            }
            let deps: Vec<Term> = match *pool.op(cur) {
                Op::Const(_) | Op::Var(..) => Vec::new(),
                Op::Not(a) | Op::Extract(a, _, _) => vec![a],
                Op::And(a, b)
                | Op::Or(a, b)
                | Op::Xor(a, b)
                | Op::Concat(a, b)
                | Op::Add(a, b)
                | Op::Eq(a, b)
                | Op::Ult(a, b)
                | Op::Ule(a, b) => vec![a, b],
                Op::Ite(c, x, y) => vec![c, x, y],
            };
            let pending: Vec<Term> = deps
                .into_iter()
                .filter(|d| !self.cache.contains_key(d))
                .collect();
            if pending.is_empty() {
                stack.pop();
                let lits = self.blast_node(pool, cur, sat);
                self.cache.insert(cur, lits);
            } else {
                stack.extend(pending);
            }
        }
        self.cache[&t].clone()
    }

    /// Lowers one term whose children are already cached.
    ///
    /// Every gate goes through the constant-aware helpers: literals equal
    /// to the constant-true literal (or its negation) short-circuit, so
    /// mixed constant/variable terms — e.g. the `var == const` pins of the
    /// incremental verifier — lower to clauses over the variable bits alone
    /// instead of a fresh Tseitin variable per bit.
    fn blast_node(&mut self, pool: &TermPool, t: Term, sat: &mut Solver) -> Vec<Lit> {
        let tl = self.true_lit(sat);
        let vars_before = sat.num_vars() as u64;
        let is_input = matches!(*pool.op(t), Op::Var(..));
        let lits = match *pool.op(t) {
            Op::Const(ref b) => b.iter().map(|bit| if bit { tl } else { !tl }).collect(),
            Op::Var(_, w) => (0..w).map(|_| Lit::pos(sat.new_var())).collect(),
            Op::Not(a) => {
                let av = self.blast(pool, a, sat);
                av.into_iter().map(|l| !l).collect()
            }
            Op::And(a, b) => {
                let (av, bv) = (self.blast(pool, a, sat), self.blast(pool, b, sat));
                av.iter()
                    .zip(&bv)
                    .map(|(&x, &y)| and_gate(sat, x, y, tl))
                    .collect()
            }
            Op::Or(a, b) => {
                let (av, bv) = (self.blast(pool, a, sat), self.blast(pool, b, sat));
                av.iter()
                    .zip(&bv)
                    .map(|(&x, &y)| or_gate(sat, x, y, tl))
                    .collect()
            }
            Op::Xor(a, b) => {
                let (av, bv) = (self.blast(pool, a, sat), self.blast(pool, b, sat));
                av.iter()
                    .zip(&bv)
                    .map(|(&x, &y)| xor_gate(sat, x, y, tl))
                    .collect()
            }
            Op::Concat(a, b) => {
                let mut av = self.blast(pool, a, sat);
                av.extend(self.blast(pool, b, sat));
                av
            }
            Op::Extract(a, s, e) => {
                let av = self.blast(pool, a, sat);
                av[s as usize..e as usize].to_vec()
            }
            Op::Add(a, b) => {
                let (av, bv) = (self.blast(pool, a, sat), self.blast(pool, b, sat));
                ripple_add(sat, &av, &bv, tl)
            }
            Op::Eq(a, b) => {
                let (av, bv) = (self.blast(pool, a, sat), self.blast(pool, b, sat));
                vec![eq_gate(sat, &av, &bv, tl)]
            }
            Op::Ult(a, b) => {
                let (av, bv) = (self.blast(pool, a, sat), self.blast(pool, b, sat));
                vec![ult_gate(sat, &av, &bv, tl)]
            }
            Op::Ule(a, b) => {
                // a <= b  ==  ¬(b < a)
                let (av, bv) = (self.blast(pool, a, sat), self.blast(pool, b, sat));
                vec![!ult_gate(sat, &bv, &av, tl)]
            }
            Op::Ite(c, x, y) => {
                let cl = self.blast(pool, c, sat)[0];
                let (xv, yv) = (self.blast(pool, x, sat), self.blast(pool, y, sat));
                xv.iter()
                    .zip(&yv)
                    .map(|(&xb, &yb)| mux_gate(sat, cl, xb, yb, tl))
                    .collect()
            }
        };
        self.stats.nodes_lowered += 1;
        let fresh = sat.num_vars() as u64 - vars_before;
        if is_input {
            self.stats.input_vars += fresh;
        } else {
            self.stats.gate_vars += fresh;
        }
        lits
    }
}

/// g ↔ a ∧ b; `tl` is the constant-true literal, enabling constant and
/// structural short-circuits (no fresh variable when the result is one of
/// the inputs or a constant).
fn and_gate(sat: &mut Solver, a: Lit, b: Lit, tl: Lit) -> Lit {
    if a == tl || a == b {
        return b;
    }
    if b == tl {
        return a;
    }
    if a == !tl || b == !tl || a == !b {
        return !tl;
    }
    let g = Lit::pos(sat.new_var());
    sat.add_clause([!g, a]);
    sat.add_clause([!g, b]);
    sat.add_clause([g, !a, !b]);
    g
}

/// g ↔ a ∨ b
fn or_gate(sat: &mut Solver, a: Lit, b: Lit, tl: Lit) -> Lit {
    !and_gate(sat, !a, !b, tl)
}

/// g ↔ a ⊕ b
fn xor_gate(sat: &mut Solver, a: Lit, b: Lit, tl: Lit) -> Lit {
    if a == tl {
        return !b;
    }
    if a == !tl {
        return b;
    }
    if b == tl {
        return !a;
    }
    if b == !tl {
        return a;
    }
    if a == b {
        return !tl;
    }
    if a == !b {
        return tl;
    }
    let g = Lit::pos(sat.new_var());
    sat.add_clause([!g, a, b]);
    sat.add_clause([!g, !a, !b]);
    sat.add_clause([g, !a, b]);
    sat.add_clause([g, a, !b]);
    g
}

/// g ↔ (c ? x : y)
fn mux_gate(sat: &mut Solver, c: Lit, x: Lit, y: Lit, tl: Lit) -> Lit {
    if c == tl {
        return x;
    }
    if c == !tl {
        return y;
    }
    if x == y {
        return x;
    }
    if x == tl && y == !tl {
        return c;
    }
    if x == !tl && y == tl {
        return !c;
    }
    let g = Lit::pos(sat.new_var());
    sat.add_clause([!c, !x, g]);
    sat.add_clause([!c, x, !g]);
    sat.add_clause([c, !y, g]);
    sat.add_clause([c, y, !g]);
    // Redundant but propagation-strengthening clauses.
    sat.add_clause([!x, !y, g]);
    sat.add_clause([x, y, !g]);
    g
}

/// Modular ripple-carry addition, wire order (index 0 = MSB).
fn ripple_add(sat: &mut Solver, a: &[Lit], b: &[Lit], tl: Lit) -> Vec<Lit> {
    debug_assert_eq!(a.len(), b.len());
    let mut out = vec![Lit::pos(ph_sat::Var(0)); a.len()];
    let mut carry: Option<Lit> = None;
    for i in (0..a.len()).rev() {
        let axb = xor_gate(sat, a[i], b[i], tl);
        let (sum, new_carry) = match carry {
            None => (axb, and_gate(sat, a[i], b[i], tl)),
            Some(c) => {
                let s = xor_gate(sat, axb, c, tl);
                let t1 = and_gate(sat, a[i], b[i], tl);
                let t2 = and_gate(sat, axb, c, tl);
                (s, or_gate(sat, t1, t2, tl))
            }
        };
        out[i] = sum;
        carry = Some(new_carry);
    }
    out
}

/// g ↔ (a == b), bitwise.
fn eq_gate(sat: &mut Solver, a: &[Lit], b: &[Lit], tl: Lit) -> Lit {
    debug_assert_eq!(a.len(), b.len());
    // eq_i literals: ¬(a_i ⊕ b_i).  Constant-true positions vanish; a
    // constant-false position makes the whole equality false.
    let mut eqs: Vec<Lit> = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let e = !xor_gate(sat, x, y, tl);
        if e == tl {
            continue;
        }
        if e == !tl {
            return !tl;
        }
        eqs.push(e);
    }
    match eqs.as_slice() {
        [] => tl,
        [only] => *only,
        _ => {
            let g = Lit::pos(sat.new_var());
            // g → eq_i for all i
            for &e in &eqs {
                sat.add_clause([!g, e]);
            }
            // (∧ eq_i) → g
            let mut clause: Vec<Lit> = eqs.iter().map(|&e| !e).collect();
            clause.push(g);
            sat.add_clause(clause);
            g
        }
    }
}

/// g ↔ (a < b) unsigned; `tl` is the constant-true literal.
fn ult_gate(sat: &mut Solver, a: &[Lit], b: &[Lit], tl: Lit) -> Lit {
    debug_assert_eq!(a.len(), b.len());
    // Process from least significant (last index) to most significant:
    // acc' = (¬a_i ∧ b_i) ∨ ((a_i ↔ b_i) ∧ acc)
    let mut acc = !tl; // false
    for i in (0..a.len()).rev() {
        let lt_here = and_gate(sat, !a[i], b[i], tl);
        let eq_here = !xor_gate(sat, a[i], b[i], tl);
        let keep = and_gate(sat, eq_here, acc, tl);
        acc = or_gate(sat, lt_here, keep, tl);
    }
    acc
}

#[cfg(test)]
mod tests {
    use crate::{Smt, SmtResult};
    use ph_bits::BitString;

    #[test]
    fn add_exact() {
        let mut s = Smt::new();
        let x = s.var("x", 8);
        let c3 = s.const_u64(3, 8);
        let c200 = s.const_u64(200, 8);
        let sum = s.add(x, c3);
        let eq = s.eq(sum, c200);
        s.assert(eq);
        assert!(s.check().is_sat());
        assert_eq!(s.model_u64(x), 197);
    }

    #[test]
    fn add_wraps() {
        let mut s = Smt::new();
        let x = s.var("x", 4);
        let c10 = s.const_u64(10, 4);
        let c3 = s.const_u64(3, 4); // 10 + x == 3 (mod 16) -> x = 9
        let sum = s.add(x, c10);
        let eq = s.eq(sum, c3);
        s.assert(eq);
        assert!(s.check().is_sat());
        assert_eq!(s.model_u64(x), 9);
    }

    #[test]
    fn ult_chain() {
        let mut s = Smt::new();
        let x = s.var("x", 6);
        let y = s.var("y", 6);
        let lo = s.const_u64(20, 6);
        let hi = s.const_u64(23, 6);
        let c1 = s.ult(lo, x);
        let c2 = s.ult(x, y);
        let c3 = s.ult(y, hi);
        s.assert(c1);
        s.assert(c2);
        s.assert(c3);
        assert!(s.check().is_sat());
        assert_eq!(s.model_u64(x), 21);
        assert_eq!(s.model_u64(y), 22);
    }

    #[test]
    fn ult_unsat_when_empty() {
        let mut s = Smt::new();
        let x = s.var("x", 4);
        let c = s.const_u64(0, 4);
        let lt = s.ult(x, c);
        s.assert(lt);
        assert!(s.check().is_unsat());
    }

    #[test]
    fn ule_boundary() {
        let mut s = Smt::new();
        let x = s.var("x", 4);
        let c15 = s.const_u64(15, 4);
        let ge = s.ule(c15, x);
        s.assert(ge);
        assert!(s.check().is_sat());
        assert_eq!(s.model_u64(x), 15);
    }

    #[test]
    fn concat_extract_structural() {
        let mut s = Smt::new();
        let x = s.var("x", 4);
        let y = s.var("y", 4);
        let cat = s.concat(x, y);
        let c = s.const_u64(0xA5, 8);
        let eq = s.eq(cat, c);
        s.assert(eq);
        assert!(s.check().is_sat());
        assert_eq!(s.model_u64(x), 0xA);
        assert_eq!(s.model_u64(y), 0x5);
        let hi = s.extract(cat, 0, 4);
        assert_eq!(s.model_u64(hi), 0xA);
    }

    #[test]
    fn ite_selects() {
        let mut s = Smt::new();
        let c = s.var("c", 1);
        let a = s.const_u64(7, 4);
        let b = s.const_u64(2, 4);
        let m = s.ite(c, a, b);
        let seven = s.const_u64(7, 4);
        let eq = s.eq(m, seven);
        s.assert(eq);
        assert!(s.check().is_sat());
        assert!(s.model_bool(c));
    }

    #[test]
    fn tcam_match_semantics() {
        // key & mask == value & mask, the core TCAM predicate.
        let mut s = Smt::new();
        let key = s.var("key", 4);
        let mask = s.const_u64(0b1001, 4);
        let value = s.const_u64(0b1000, 4);
        let km = s.and(key, mask);
        let vm = s.and(value, mask);
        let m = s.eq(km, vm);
        s.assert(m);
        assert!(s.check().is_sat());
        let k = s.model_u64(key);
        assert_eq!(k & 0b1001, 0b1000);
    }

    #[test]
    fn incremental_tightening() {
        let mut s = Smt::new();
        let x = s.var("x", 8);
        // successively exclude values
        for forbidden in 0..10u64 {
            let c = s.const_u64(forbidden, 8);
            let ne = s.ne(x, c);
            s.assert(ne);
            assert!(s.check().is_sat());
            assert!(s.model_u64(x) > forbidden);
        }
    }

    #[test]
    fn check_assuming_does_not_stick() {
        let mut s = Smt::new();
        let x = s.var("x", 4);
        let five = s.const_u64(5, 4);
        let is5 = s.eq(x, five);
        let not5 = s.not(is5);
        assert_eq!(s.check_assuming(&[is5]), SmtResult::Sat);
        assert_eq!(s.model_u64(x), 5);
        assert_eq!(s.check_assuming(&[not5]), SmtResult::Sat);
        assert_ne!(s.model_u64(x), 5);
        assert_eq!(s.check_assuming(&[is5, not5]), SmtResult::Unsat);
        assert_eq!(s.check(), SmtResult::Sat);
    }

    #[test]
    fn popcount_constraints() {
        let mut s = Smt::new();
        let bits: Vec<_> = (0..5).map(|i| s.var(&format!("b{i}"), 1)).collect();
        let pc = s.popcount(&bits);
        let three = s.const_u64(3, s.width(pc));
        let eq = s.eq(pc, three);
        s.assert(eq);
        assert!(s.check().is_sat());
        let ones = bits.iter().filter(|&&b| s.model_bool(b)).count();
        assert_eq!(ones, 3);
    }

    #[test]
    fn exactly_one_works() {
        let mut s = Smt::new();
        let bits: Vec<_> = (0..6).map(|i| s.var(&format!("b{i}"), 1)).collect();
        let eo = s.exactly_one(&bits);
        s.assert(eo);
        assert!(s.check().is_sat());
        let ones = bits.iter().filter(|&&b| s.model_bool(b)).count();
        assert_eq!(ones, 1);
    }

    #[test]
    fn wide_vectors() {
        let mut s = Smt::new();
        let x = s.var("x", 128);
        let big = s.const_bits(BitString::from_u128(u128::MAX - 1, 128));
        let lt = s.ult(big, x);
        s.assert(lt);
        assert!(s.check().is_sat());
        assert_eq!(s.model_value(x).to_u128(), u128::MAX);
    }

    #[test]
    fn unsat_equalities() {
        let mut s = Smt::new();
        let x = s.var("x", 8);
        let a = s.const_u64(1, 8);
        let b = s.const_u64(2, 8);
        let e1 = s.eq(x, a);
        let e2 = s.eq(x, b);
        s.assert(e1);
        s.assert(e2);
        assert!(s.check().is_unsat());
    }

    #[test]
    fn push_pop_retracts_assertions() {
        let mut s = Smt::new();
        let x = s.var("x", 8);
        let five = s.const_u64(5, 8);
        let is5 = s.eq(x, five);
        let not5 = s.ne(x, five);
        s.assert(is5);
        assert!(s.check().is_sat());

        s.push();
        s.assert(not5);
        assert!(s.check().is_unsat());
        s.pop();

        // The contradiction was scoped; the base problem is SAT again.
        assert!(s.check().is_sat());
        assert_eq!(s.model_u64(x), 5);
    }

    #[test]
    fn nested_scopes() {
        let mut s = Smt::new();
        let x = s.var("x", 4);
        let three = s.const_u64(3, 4);
        let lt3 = s.ult(x, three);
        s.push();
        s.assert(lt3); // x < 3
        assert_eq!(s.scope_depth(), 1);

        s.push();
        let zero = s.const_u64(0, 4);
        let nz = s.ne(x, zero);
        let one = s.const_u64(1, 4);
        let n1 = s.ne(x, one);
        let two = s.const_u64(2, 4);
        let n2 = s.ne(x, two);
        s.assert(nz);
        s.assert(n1);
        s.assert(n2); // excludes all of {0,1,2}: contradicts x < 3
        assert_eq!(s.scope_depth(), 2);
        assert!(s.check().is_unsat());
        s.pop();

        // Inner exclusions retracted; x < 3 still holds.
        assert!(s.check().is_sat());
        assert!(s.model_u64(x) < 3);
        s.pop();
        assert_eq!(s.scope_depth(), 0);

        // Everything retracted.
        let eight = s.const_u64(8, 4);
        let is8 = s.eq(x, eight);
        assert_eq!(s.check_assuming(&[is8]), SmtResult::Sat);
    }

    #[test]
    fn assumptions_compose_with_scopes() {
        let mut s = Smt::new();
        let x = s.var("x", 4);
        let seven = s.const_u64(7, 4);
        let is7 = s.eq(x, seven);
        let not7 = s.ne(x, seven);
        s.push();
        s.assert(not7);
        // An assumption conflicting with the open scope is UNSAT ...
        assert_eq!(s.check_assuming(&[is7]), SmtResult::Unsat);
        // ... and compatible assumptions stay SAT.
        assert_eq!(s.check_assuming(&[not7]), SmtResult::Sat);
        s.pop();
        // After popping, the same assumption is satisfiable.
        assert_eq!(s.check_assuming(&[is7]), SmtResult::Sat);
        assert_eq!(s.model_u64(x), 7);
    }

    #[test]
    #[should_panic(expected = "pop without matching push")]
    fn pop_without_push_panics() {
        let mut s = Smt::new();
        s.pop();
    }

    #[test]
    fn constant_folding_collapses_gates() {
        // Gates fed constants must not allocate fresh solver variables:
        // x & 0 == 0, x ^ x == 0, x | !x-pattern etc. fold away.
        let mut s = Smt::new();
        let x = s.var("x", 8);
        let zero = s.const_u64(0, 8);
        let ones = s.const_u64(0xff, 8);

        let and0 = s.and(x, zero);
        let e1 = s.eq(and0, zero);
        s.assert(e1); // tautology after folding

        let and1 = s.and(x, ones);
        let e2 = s.eq(and1, x);
        s.assert(e2); // x & 0xff == x, also a tautology

        let xorx = s.xor(x, x);
        let e3 = s.eq(xorx, zero);
        s.assert(e3);

        let or1 = s.or(x, ones);
        let e4 = s.eq(or1, ones);
        s.assert(e4);

        assert!(s.check().is_sat());

        // And the folds preserve semantics on a pinned witness.
        let c = s.const_u64(0xa5, 8);
        let pin = s.eq(x, c);
        assert_eq!(s.check_assuming(&[pin]), SmtResult::Sat);
        assert_eq!(s.model_u64(and1), 0xa5);
        assert_eq!(s.model_u64(and0), 0);
    }
}
