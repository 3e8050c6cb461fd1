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
//! * two-watched-literal unit propagation,
//! * first-UIP conflict analysis with recursive clause minimization,
//! * VSIDS branching with phase saving,
//! * Luby-sequence restarts,
//! * LBD-based learned-clause database reduction,
//! * incremental solving under assumptions (clauses may be added between
//!   `solve` calls, which is what the CEGIS synthesis phase needs as
//!   counterexamples accumulate),
//! * SatELite-style clause-database simplification — bounded variable
//!   elimination, (self-)subsumption and failed-literal probing — run as
//!   preprocessing on `solve` and as inprocessing between restarts, with
//!   [`Solver::freeze`] protecting externally visible variables,
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
mod simplify;
mod solver;

pub use dimacs::{dump_cnf_if_requested, parse_dimacs, set_cnf_dump_dir, write_dimacs};
pub use lit::{Lit, Var};
pub use solver::{Interrupt, SolveResult, Solver, SolverStats};
