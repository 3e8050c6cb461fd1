//! # ph-sat
//!
//! A CDCL (conflict-driven clause learning) SAT solver, built as the solver
//! substrate for ParserHawk's synthesis engine.
//!
//! The ParserHawk paper runs its CEGIS loop on Z3; every query it issues is a
//! quantifier-free bit-vector formula over bounded variables, which reduces to
//! propositional SAT by bit-blasting (done by the sibling `ph-smt` crate).
//! This crate supplies the propositional engine:
//!
//! * two-watched-literal unit propagation, with binary problem clauses
//!   held only in the watch lists, and every literal's list a
//!   power-of-two block of one shared pool behind an 8-byte head,
//! * first-UIP conflict analysis with basic (non-recursive) clause
//!   minimization: a literal goes when its reason's other literals are all
//!   in the learnt clause or fixed at level 0,
//! * VSIDS branching with phase saving,
//! * Luby-sequence restarts,
//! * LBD-based learned-clause database reduction,
//! * one flat clause arena for the longer and the learnt clauses,
//!   compacted by a mark-compact GC once the clauses that reduction deleted
//!   waste enough of it,
//! * incremental solving under assumptions (clauses may be added between
//!   `solve` calls, which is what the CEGIS synthesis phase needs as
//!   counterexamples accumulate),
//! * DIMACS CNF input/output for standalone testing.
//!
//! ```
//! use ph_sat::{Solver, Lit};
//!
//! let mut s = Solver::new();
//! let a = s.new_var();
//! let b = s.new_var();
//! s.add_clause([Lit::pos(a), Lit::pos(b)]);
//! s.add_clause([Lit::neg(a)]);
//! assert_eq!(s.solve(), Some(true));
//! assert_eq!(s.value(b), Some(true));
//! ```

mod arena;
mod dimacs;
mod lit;
mod solver;
mod watch;

pub use dimacs::{parse_dimacs, write_dimacs};
pub use lit::{Lit, Var};
pub use solver::{Interrupt, SolveResult, Solver, SolverStats};
