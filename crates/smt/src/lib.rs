//! # ph-smt
//!
//! A quantifier-free bit-vector (QF_BV) solver layered on the `ph-sat` CDCL
//! engine — the drop-in replacement for the Z3 queries issued by ParserHawk's
//! CEGIS loop.
//!
//! The design mirrors how SMT solvers decide QF_BV in practice:
//!
//! 1. formulas are built as a hash-consed term DAG with eager constant
//!    folding and light algebraic rewriting ([`term`]),
//! 2. asserted terms are *bit-blasted* into CNF with Tseitin encoding
//!    ([`blast`]),
//! 3. the CDCL solver decides the CNF, and models are read back as
//!    [`ph_bits::BitString`] values per term.
//!
//! Booleans are 1-bit bit-vectors, so the whole formula language is uniform.
//!
//! ```
//! use ph_smt::Smt;
//!
//! let mut smt = Smt::new();
//! let x = smt.var("x", 8);
//! let y = smt.var("y", 8);
//! let sum = smt.add(x, y);
//! let c = smt.const_u64(100, 8);
//! let eq = smt.eq(sum, c);
//! let bound = smt.const_u64(10, 8);
//! let x_small = smt.ult(x, bound);
//! smt.assert(eq);
//! smt.assert(x_small);
//! assert!(smt.check().is_sat());
//! let m = smt.model_u64(x) + smt.model_u64(y);
//! assert_eq!(m % 256, 100);
//! assert!(smt.model_u64(x) < 10);
//! ```

mod blast;
mod term;

pub use blast::BlastStats;
pub use ph_sat::SolverStats;
pub use term::{Op, Term};

use ph_bits::BitString;
use ph_sat::{SolveResult, Solver};
use std::collections::HashMap;

/// Outcome of an SMT check.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmtResult {
    /// A model exists (readable via [`Smt::model_value`]).
    Sat,
    /// No model exists.
    Unsat,
    /// The solver's conflict budget ran out.
    Unknown,
}

impl SmtResult {
    /// True for [`SmtResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SmtResult::Sat
    }
    /// True for [`SmtResult::Unsat`].
    pub fn is_unsat(self) -> bool {
        self == SmtResult::Unsat
    }
}

/// A bit-vector SMT solver: term manager + bit-blaster + CDCL engine.
///
/// Assertions accumulate; [`Smt::check`] is incremental (counterexample
/// constraints can be added between checks, as the CEGIS synthesis phase
/// requires). One-shot hypothetical queries go through
/// [`Smt::check_assuming`].
pub struct Smt {
    terms: term::TermPool,
    sat: Solver,
    blaster: blast::Blaster,
    /// Asserted top-level terms (for debugging / statistics).
    assertions: Vec<Term>,
    /// Selector literal per open assertion scope (see [`Smt::push`]).
    scopes: Vec<ph_sat::Lit>,
    model_cache: HashMap<Term, BitString>,
}

impl Default for Smt {
    fn default() -> Self {
        Self::new()
    }
}

impl Smt {
    /// Creates an empty solver.
    pub fn new() -> Smt {
        Smt {
            terms: term::TermPool::new(),
            sat: Solver::new(),
            blaster: blast::Blaster::new(),
            assertions: Vec::new(),
            scopes: Vec::new(),
            model_cache: HashMap::new(),
        }
    }

    /// Number of distinct terms created (search-space bookkeeping).
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Number of SAT variables allocated by bit-blasting so far.
    pub fn num_sat_vars(&self) -> usize {
        self.sat.num_vars()
    }

    /// The CDCL engine's search statistics (conflicts, decisions,
    /// propagations, restarts, learned clauses, clauses added).  Snapshot
    /// before and after a check and use
    /// [`SolverStats::delta_since`] for per-query effort.
    pub fn solver_stats(&self) -> SolverStats {
        self.sat.stats()
    }

    /// Bit-blasting effort so far: term nodes lowered, input variables and
    /// Tseitin gate variables introduced.
    pub fn blast_stats(&self) -> BlastStats {
        self.blaster.stats()
    }

    /// Limits each subsequent `check` to roughly `n` conflicts
    /// (`None` = unlimited). Exhaustion yields [`SmtResult::Unknown`].
    pub fn set_conflict_budget(&mut self, n: Option<u64>) {
        self.sat.set_conflict_budget(n);
    }

    /// Installs a cooperative [`ph_sat::Interrupt`] — a cancel flag plus an
    /// optional wall-clock deadline (see [`ph_sat::Solver::set_interrupt`]);
    /// an interrupted check returns [`SmtResult::Unknown`].
    pub fn set_interrupt(&mut self, interrupt: Option<ph_sat::Interrupt>) {
        self.sat.set_interrupt(interrupt);
    }

    /// Lowers `t` to CNF now, if it is not lowered yet, so its bits take
    /// the next SAT variables.  Lowering is otherwise lazy (on the first
    /// assertion or check that mentions the term); a caller that wants a
    /// term's bits numbered first calls this before building the rest.
    pub fn lower(&mut self, t: Term) {
        self.blaster.blast(&self.terms, t, &mut self.sat);
    }

    // ---- term constructors (delegated to the pool) --------------------

    /// A fresh named bit-vector variable of the given width.
    pub fn var(&mut self, name: &str, width: u32) -> Term {
        self.terms.var(name, width)
    }

    /// A constant from a [`BitString`].
    pub fn const_bits(&mut self, bits: BitString) -> Term {
        self.terms.const_bits(bits)
    }

    /// A constant from the low `width` bits of `v`.
    pub fn const_u64(&mut self, v: u64, width: u32) -> Term {
        self.terms
            .const_bits(BitString::from_u64(v, width as usize))
    }

    /// The true boolean (1-bit constant 1).
    pub fn tt(&mut self) -> Term {
        self.const_u64(1, 1)
    }

    /// The false boolean (1-bit constant 0).
    pub fn ff(&mut self) -> Term {
        self.const_u64(0, 1)
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: Term) -> Term {
        self.terms.mk(Op::Not(a))
    }

    /// Bitwise AND (equal widths).
    pub fn and(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::And(a, b))
    }

    /// Bitwise OR (equal widths).
    pub fn or(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::Or(a, b))
    }

    /// Bitwise XOR (equal widths).
    pub fn xor(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::Xor(a, b))
    }

    /// Concatenation; `a` supplies the leading (wire-order first) bits.
    pub fn concat(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::Concat(a, b))
    }

    /// Bits `[start, end)` in wire order (0 = first/most-significant bit).
    pub fn extract(&mut self, a: Term, start: u32, end: u32) -> Term {
        self.terms.mk(Op::Extract(a, start, end))
    }

    /// Modular addition (equal widths).
    pub fn add(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::Add(a, b))
    }

    /// Equality; yields a boolean.
    pub fn eq(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::Eq(a, b))
    }

    /// Disequality; yields a boolean.
    pub fn ne(&mut self, a: Term, b: Term) -> Term {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Unsigned less-than; yields a boolean.
    pub fn ult(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::Ult(a, b))
    }

    /// Unsigned less-or-equal; yields a boolean.
    pub fn ule(&mut self, a: Term, b: Term) -> Term {
        self.terms.mk(Op::Ule(a, b))
    }

    /// If-then-else; `cond` is boolean, branches have equal width.
    pub fn ite(&mut self, cond: Term, then_t: Term, else_t: Term) -> Term {
        self.terms.mk(Op::Ite(cond, then_t, else_t))
    }

    /// Boolean implication.
    pub fn implies(&mut self, a: Term, b: Term) -> Term {
        let na = self.not(a);
        self.or(na, b)
    }

    /// Boolean bi-implication.
    pub fn iff(&mut self, a: Term, b: Term) -> Term {
        self.eq(a, b)
    }

    /// N-ary AND over booleans (or equal-width vectors); empty = true.
    pub fn and_all(&mut self, ts: &[Term]) -> Term {
        match ts.split_first() {
            None => self.tt(),
            Some((&h, rest)) => {
                let mut acc = h;
                for &t in rest {
                    acc = self.and(acc, t);
                }
                acc
            }
        }
    }

    /// N-ary OR over booleans; empty = false.
    pub fn or_all(&mut self, ts: &[Term]) -> Term {
        match ts.split_first() {
            None => self.ff(),
            Some((&h, rest)) => {
                let mut acc = h;
                for &t in rest {
                    acc = self.or(acc, t);
                }
                acc
            }
        }
    }

    /// At-most-one over boolean terms (pairwise encoding).
    pub fn at_most_one(&mut self, ts: &[Term]) -> Term {
        let mut clauses = Vec::new();
        for i in 0..ts.len() {
            for j in (i + 1)..ts.len() {
                let ni = self.not(ts[i]);
                let nj = self.not(ts[j]);
                clauses.push(self.or(ni, nj));
            }
        }
        self.and_all(&clauses)
    }

    /// Exactly-one over boolean terms.
    pub fn exactly_one(&mut self, ts: &[Term]) -> Term {
        let amo = self.at_most_one(ts);
        let alo = self.or_all(ts);
        self.and(amo, alo)
    }

    /// Count of true booleans equals/below `k`: returns the popcount as a
    /// bit-vector wide enough to hold `ts.len()`.
    pub fn popcount(&mut self, ts: &[Term]) -> Term {
        let width = ph_bits::bits_for(ts.len() as u64).max(1);
        let mut acc = self.const_u64(0, width);
        for &t in ts {
            debug_assert_eq!(self.width(t), 1);
            let zero = self.const_u64(0, width - 1);
            let ext = if width > 1 { self.concat(zero, t) } else { t };
            acc = self.add(acc, ext);
        }
        acc
    }

    /// Zero-extends `t` to `width` bits (no-op when already that width).
    pub fn zext(&mut self, t: Term, width: u32) -> Term {
        let w = self.width(t);
        assert!(width >= w, "zext to narrower width");
        if width == w {
            t
        } else {
            let zeros = self.const_u64(0, width - w);
            self.concat(zeros, t)
        }
    }

    /// The term's width in bits.
    pub fn width(&self, t: Term) -> u32 {
        self.terms.width(t)
    }

    /// The term's operator (for traversal/debugging).
    pub fn op(&self, t: Term) -> &Op {
        self.terms.op(t)
    }

    // ---- solving -------------------------------------------------------

    /// Asserts a boolean term to be true in all subsequent checks.  Inside
    /// an open scope (see [`Smt::push`]) the assertion is retracted by the
    /// matching [`Smt::pop`].
    pub fn assert(&mut self, t: Term) {
        assert_eq!(self.width(t), 1, "assert requires a boolean term");
        self.assertions.push(t);
        let lit = self.blaster.blast_bool(&self.terms, t, &mut self.sat);
        match self.scopes.last() {
            // Scoped assertion: guarded by the innermost selector, so the
            // clause deactivates when that scope pops (stack discipline
            // guarantees inner scopes pop before outer ones).
            Some(&sel) => {
                self.sat.add_clause([!sel, lit]);
            }
            None => {
                self.sat.add_clause([lit]);
            }
        }
    }

    /// Opens an assertion scope.  Assertions made until the matching
    /// [`Smt::pop`] hold only while the scope is open; term and CNF state
    /// (the bit-blaster cache, learned clauses) survive the pop, which is
    /// what makes scoped queries cheap.
    ///
    /// Implemented as MiniSat-style selector literals riding on the SAT
    /// solver's assumption mechanism: each scoped clause is guarded by the
    /// scope's selector, every check assumes the open selectors, and `pop`
    /// permanently disables the selector with a unit clause.
    pub fn push(&mut self) {
        let sel = ph_sat::Lit::pos(self.sat.new_var());
        self.scopes.push(sel);
    }

    /// Closes the innermost scope, retracting its assertions.
    ///
    /// # Panics
    ///
    /// Panics when no scope is open.
    pub fn pop(&mut self) {
        let sel = self.scopes.pop().expect("pop without matching push");
        self.sat.add_clause([!sel]);
    }

    /// Number of open assertion scopes.
    pub fn scope_depth(&self) -> usize {
        self.scopes.len()
    }

    /// Checks satisfiability of the asserted formula.
    pub fn check(&mut self) -> SmtResult {
        self.check_assuming(&[])
    }

    /// Checks satisfiability under additional boolean terms that hold only
    /// for this call.
    ///
    /// Each term is blasted once (the term DAG and CNF are hash-consed, so
    /// re-assumed terms are free) and passed as a SAT assumption, keeping
    /// the solver's learned clauses valid across calls.
    pub fn check_assuming(&mut self, extra: &[Term]) -> SmtResult {
        let tracer = ph_obs::current();
        let _span = tracer.span("smt.check");
        let before = self.sat.stats();
        self.model_cache.clear();
        let mut lits: Vec<_> = {
            let _span = tracer.span("smt.blast");
            extra
                .iter()
                .map(|&t| {
                    assert_eq!(self.width(t), 1);
                    self.blaster.blast_bool(&self.terms, t, &mut self.sat)
                })
                .collect()
        };
        // Open scopes activate their guarded clauses via their selectors.
        lits.extend(self.scopes.iter().copied());
        let solved = {
            let _span = tracer.span("sat.solve");
            self.sat.solve_with_assumptions(&lits)
        };
        let result = match solved {
            SolveResult::Sat => SmtResult::Sat,
            SolveResult::Unsat => SmtResult::Unsat,
            SolveResult::Unknown => SmtResult::Unknown,
        };
        if tracer.enabled() {
            let after = self.sat.stats();
            after.delta_since(&before).emit(&tracer, "smt");
            // Levels: their deltas above are growth, not the current size.
            tracer.gauge("smt.terms", self.terms.len() as u64);
            tracer.gauge("smt.sat_vars", self.sat.num_vars() as u64);
            tracer.gauge("smt.gate_vars", self.blaster.stats().gate_vars);
            tracer.gauge("smt.learnts", after.learnts);
            tracer.gauge("smt.arena_bytes", after.arena_bytes);
            tracer.gauge("smt.watch_bytes", self.sat.watch_bytes() as u64);
        }
        result
    }

    /// Reads a term's value from the current model (after a `Sat` check).
    ///
    /// Works for any term: variables take their model value (unconstrained
    /// bits default to 0) and compound terms are evaluated bottom-up.
    /// Iterative (worklist) evaluation — CEGIS terms chain thousands of
    /// dependent iterations, too deep for recursion.
    pub fn model_value(&mut self, t: Term) -> BitString {
        let mut stack = vec![t];
        while let Some(&cur) = stack.last() {
            if self.model_cache.contains_key(&cur) {
                stack.pop();
                continue;
            }
            let deps: Vec<Term> = match *self.terms.op(cur) {
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
                .filter(|d| !self.model_cache.contains_key(d))
                .collect();
            if pending.is_empty() {
                stack.pop();
                let v = self.model_node(cur);
                self.model_cache.insert(cur, v);
            } else {
                stack.extend(pending);
            }
        }
        self.model_cache[&t].clone()
    }

    /// Evaluates one term whose children are already cached.
    fn model_node(&mut self, t: Term) -> BitString {
        let op = self.terms.op(t).clone();
        match op {
            Op::Const(b) => b,
            Op::Var(_, width) => {
                let mut out = BitString::zeros(width as usize);
                if let Some(lits) = self.blaster.lits_of(t) {
                    for (i, &l) in lits.iter().enumerate() {
                        if self.sat.lit_value(l) == Some(true) {
                            out.set(i, true);
                        }
                    }
                }
                out
            }
            Op::Not(a) => self.model_value(a).not(),
            Op::And(a, b) => self.model_value(a).and(&self.model_value(b)),
            Op::Or(a, b) => self.model_value(a).or(&self.model_value(b)),
            Op::Xor(a, b) => self.model_value(a).xor(&self.model_value(b)),
            Op::Concat(a, b) => self.model_value(a).concat(&self.model_value(b)),
            Op::Extract(a, s, e) => self.model_value(a).slice(s as usize, e as usize),
            Op::Add(a, b) => {
                let x = self.model_value(a);
                let y = self.model_value(b);
                add_bits(&x, &y)
            }
            Op::Eq(a, b) => {
                BitString::from_u64((self.model_value(a) == self.model_value(b)) as u64, 1)
            }
            Op::Ult(a, b) => {
                let lt = cmp_bits(&self.model_value(a), &self.model_value(b)).is_lt();
                BitString::from_u64(lt as u64, 1)
            }
            Op::Ule(a, b) => {
                let le = !cmp_bits(&self.model_value(a), &self.model_value(b)).is_gt();
                BitString::from_u64(le as u64, 1)
            }
            Op::Ite(c, x, y) => {
                if self.model_value(c).to_u64() == 1 {
                    self.model_value(x)
                } else {
                    self.model_value(y)
                }
            }
        }
    }

    /// Convenience: the model value as a `u64` (term width must be ≤ 64).
    pub fn model_u64(&mut self, t: Term) -> u64 {
        self.model_value(t).to_u64()
    }

    /// Convenience: the model value of a boolean term.
    pub fn model_bool(&mut self, t: Term) -> bool {
        self.model_u64(t) == 1
    }
}

/// Modular addition of equal-width bit strings (MSB-first).
pub(crate) fn add_bits(a: &BitString, b: &BitString) -> BitString {
    assert_eq!(a.len(), b.len());
    let mut out = BitString::zeros(a.len());
    let mut carry = false;
    for i in (0..a.len()).rev() {
        let x = a.get(i);
        let y = b.get(i);
        out.set(i, x ^ y ^ carry);
        carry = (x & y) | (carry & (x ^ y));
    }
    out
}

/// Unsigned comparison of equal-width bit strings (MSB-first).
pub(crate) fn cmp_bits(a: &BitString, b: &BitString) -> std::cmp::Ordering {
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        match (a.get(i), b.get(i)) {
            (false, true) => return std::cmp::Ordering::Less,
            (true, false) => return std::cmp::Ordering::Greater,
            _ => {}
        }
    }
    std::cmp::Ordering::Equal
}
