//! The CDCL search engine.
//!
//! Architecture follows MiniSat: a trail of assigned literals with decision
//! levels and reasons, two-watched-literal propagation, first-UIP conflict
//! analysis, VSIDS variable activities with phase saving, Luby restarts and
//! a tiered learned-clause database.
//!
//! Clause storage is a single flat `u32` arena (see [`crate::arena`]): the
//! propagate loop dereferences watch lists straight into one contiguous
//! buffer instead of chasing a heap pointer per clause, deletion tombstones
//! clauses in place, and a mark-compact GC reclaims the waste once it
//! crosses a configurable fraction of the arena.
//!
//! The solver is incremental: clauses may be added between [`Solver::solve`]
//! calls and solving may be done under a set of assumption literals, which is
//! how the CEGIS synthesis phase accumulates counterexample constraints.

use crate::arena::{tier_for_lbd, ClauseArena, TIER_LOCAL, TIER_MID};
use crate::lit::{Lit, Var};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

pub(crate) use crate::arena::{ClauseRef, REASON_NONE};

/// Truth value of a variable: unassigned, true or false.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum LBool {
    Undef,
    True,
    False,
}

impl LBool {
    #[inline]
    pub(crate) fn from_bool(b: bool) -> LBool {
        if b {
            LBool::True
        } else {
            LBool::False
        }
    }
}

#[derive(Clone, Copy)]
pub(crate) struct Watch {
    pub(crate) cref: ClauseRef,
    /// A literal of the clause other than the watched one; if it is already
    /// true the clause is satisfied and the watch list walk can skip it.
    pub(crate) blocker: Lit,
}

/// Outcome of a `solve` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SolveResult {
    /// Satisfiable; a model is available through [`Solver::value`].
    Sat,
    /// Unsatisfiable (possibly only under the given assumptions).
    Unsat,
    /// The conflict budget ran out, or the [`Interrupt`] was set, before a
    /// verdict.
    Unknown,
}

/// Cooperative cancellation for a solver: a shared flag that another thread
/// may set (a losing synthesis race branch), plus an optional wall-clock
/// deadline.  Both are checked together wherever the solver polls for
/// interruption, so enforcing a deadline needs no timer thread.
#[derive(Clone, Debug, Default)]
pub struct Interrupt {
    /// Set by another thread to cancel.
    pub flag: Arc<AtomicBool>,
    /// Once this instant has passed, the interrupt counts as set.
    pub deadline: Option<Instant>,
}

impl Interrupt {
    /// Whether the flag is set or the deadline has passed.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
    }
}

ph_obs::stats! {
    /// Search statistics, useful for benchmark reporting.  Cumulative over
    /// the solver's lifetime; [`SolverStats::delta_since`] gives the cost of
    /// one `solve`/`check_assuming` call.  `learnts` and `arena_bytes` are
    /// levels, not counters, so their deltas read zero when the database
    /// shrank.
    #[derive(Clone, Copy, Default, Debug)]
    pub struct SolverStats {
        /// Total conflicts encountered.
        conflicts: u64 = "conflicts",
        /// Total decisions taken.
        decisions: u64 = "decisions",
        /// Total literals propagated.
        propagations: u64 = "propagations",
        /// Restarts performed.
        restarts: u64 = "restarts",
        /// Learned clauses currently retained.
        learnts: u64 = "learnts",
        /// Problem clauses submitted through [`Solver::add_clause`].
        clauses_added: u64 = "clauses_added",
        /// Variables removed by bounded variable elimination.
        eliminated_vars: u64 = "eliminated_vars",
        /// Clauses deleted because another clause subsumes them.
        subsumed_clauses: u64 = "subsumed_clauses",
        /// Literals removed from clauses by unit strengthening or
        /// self-subsumption.
        strengthened_clauses: u64 = "strengthened_clauses",
        /// Top-level literals fixed by failed-literal probing.
        failed_literals: u64 = "failed_literals",
        /// Wall-clock time spent inside [`Solver::simplify`], in nanoseconds.
        simplify_time_ns: u64 = "simplify_time_ns",
        /// Mark-compact collections of the clause arena.
        arena_gcs: u64 = "arena_gcs",
        /// Current clause-arena size in bytes (a level, not a counter).
        arena_bytes: u64 = "arena_bytes",
    }
}

/// Default GC trigger: collect when tombstoned words exceed this fraction
/// of the arena.
const GC_WASTE_FRAC_DEFAULT: f64 = 0.25;

/// VSIDS activity decay factor.
const VAR_DECAY: f64 = 0.95;

/// Base conflict interval of the Luby restart schedule.
const RESTART_SCALE: u64 = 100;

/// A tier2 clause untouched for this many conflicts is demoted to the
/// aggressively-reduced local tier.
const TIER2_UNTOUCHED_LIMIT: u64 = 30_000;

/// A CDCL SAT solver.
///
/// See the [crate docs](crate) for an example.
pub struct Solver {
    /// Flat clause storage; all `ClauseRef`s point into it.
    pub(crate) arena: ClauseArena,
    /// Problem-clause references (may contain tombstoned refs between
    /// simplification passes; filtered on use).
    pub(crate) clauses: Vec<ClauseRef>,
    /// Learned-clause references (tombstoned refs pruned at reduction).
    pub(crate) learnts: Vec<ClauseRef>,
    pub(crate) watches: Vec<Vec<Watch>>,
    pub(crate) assigns: Vec<LBool>,
    pub(crate) level: Vec<u32>,
    pub(crate) reason: Vec<ClauseRef>,
    pub(crate) trail: Vec<Lit>,
    pub(crate) trail_lim: Vec<usize>,
    pub(crate) qhead: usize,
    /// VSIDS activity per variable.
    activity: Vec<f64>,
    var_inc: f64,
    /// Binary max-heap over variables ordered by activity.
    heap: Vec<Var>,
    heap_pos: Vec<usize>,
    /// Saved phases for phase-saving.
    pub(crate) phase: Vec<bool>,
    /// Clause activity bump.
    cla_inc: f64,
    /// False once an unconditional empty clause was derived.
    pub(crate) ok: bool,
    /// Learned clauses since the last database reduction.
    learnt_since_reduce: usize,
    max_learnts: usize,
    pub(crate) stats: SolverStats,
    /// Scratch for conflict analysis.
    seen: Vec<bool>,
    /// Level stamps for allocation-free LBD computation, indexed by decision
    /// level.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    /// GC triggers when tombstoned words exceed this fraction of the arena.
    gc_waste_frac: f64,
    /// Conflict budget for the next solve (None = unlimited).
    pub(crate) budget: Option<u64>,
    /// Cooperative interrupt: when set, `solve` returns `Unknown`.
    pub(crate) interrupt: Option<Interrupt>,
    /// Variables the simplifier must never eliminate (external interface
    /// variables: assumption candidates and model-read variables).
    pub(crate) frozen: Vec<bool>,
    /// Variables removed by bounded variable elimination.  Never branched
    /// on; their model values are reconstructed by [`Solver::extend_model`].
    pub(crate) eliminated: Vec<bool>,
    /// Model-reconstruction stack: for each eliminated variable, the pivot
    /// literal and the saved clauses containing it, in elimination order.
    pub(crate) elim_stack: Vec<(Lit, Vec<Vec<Lit>>)>,
    /// Master switch for pre-/inprocessing (see [`Solver::set_simplify`]).
    pub(crate) simplify_enabled: bool,
    /// Whether a simplification pass has ever run.
    pub(crate) simplified_once: bool,
    /// Problem clauses attached since the last simplification pass.
    pub(crate) new_since_simplify: usize,
    /// Problem clause refs added since the last pass — seeds the
    /// subsumption queue so inprocessing stays incremental.
    pub(crate) pending_subsumption: Vec<ClauseRef>,
    /// Conflict count at the last inprocessing run.
    pub(crate) conflicts_at_simplify: u64,
    /// Conflicts between inprocessing runs; grows geometrically.
    pub(crate) inprocess_gap: u64,
    /// Most conflicts any single solve call has spent — the scheduler's
    /// hardness signal (cumulative totals would conflate many easy queries
    /// with one hard one).
    pub(crate) max_call_conflicts: u64,
    /// Round-robin cursor for failed-literal probing.
    pub(crate) probe_cursor: usize,
}

const HEAP_NONE: usize = usize::MAX;

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Solver {
        Solver {
            arena: ClauseArena::new(),
            clauses: Vec::new(),
            learnts: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            heap: Vec::new(),
            heap_pos: Vec::new(),
            phase: Vec::new(),
            cla_inc: 1.0,
            ok: true,
            learnt_since_reduce: 0,
            max_learnts: 4000,
            stats: SolverStats::default(),
            seen: Vec::new(),
            // Slot for decision level 0; one more per variable.
            lbd_stamp: vec![0],
            lbd_counter: 0,
            gc_waste_frac: GC_WASTE_FRAC_DEFAULT,
            budget: None,
            interrupt: None,
            frozen: Vec::new(),
            eliminated: Vec::new(),
            elim_stack: Vec::new(),
            simplify_enabled: crate::dimacs::cnf_dump_dir().is_none(),
            simplified_once: false,
            new_since_simplify: 0,
            pending_subsumption: Vec::new(),
            conflicts_at_simplify: 0,
            inprocess_gap: crate::simplify::INPROCESS_GAP_INIT,
            max_call_conflicts: 0,
            probe_cursor: 0,
        }
    }

    /// Installs a cooperative [`Interrupt`] (`None` removes it), checked
    /// once per conflict and periodically inside the simplifier: once its
    /// flag is set by another thread or its deadline passes, the current and
    /// subsequent solves return [`SolveResult::Unknown`] promptly.
    pub fn set_interrupt(&mut self, interrupt: Option<Interrupt>) {
        self.interrupt = interrupt;
    }

    pub(crate) fn interrupted(&self) -> bool {
        self.interrupt.as_ref().is_some_and(Interrupt::is_set)
    }

    /// Number of variables created so far.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Number of original (problem) clauses added.
    pub fn num_clauses(&self) -> usize {
        self.clauses
            .iter()
            .filter(|&&c| !self.arena.is_deleted(c))
            .count()
    }

    /// Search statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.arena_bytes = (self.arena.len_words() * 4) as u64;
        s
    }

    /// Bytes of the clause arena currently unreachable (tombstoned clauses
    /// and strengthening slack), pending the next mark-compact GC.  The
    /// bounded-memory guarantee for long incremental sessions is that this
    /// never exceeds the configured fraction of the arena for long.
    pub fn arena_waste(&self) -> usize {
        self.arena.wasted_words() * 4
    }

    /// Testing hook: overrides the waste fraction that triggers a GC
    /// (`0.0` collects after every deletion).
    #[doc(hidden)]
    pub fn set_gc_waste_limit(&mut self, frac: f64) {
        self.gc_waste_frac = frac.max(0.0);
    }

    /// Testing hook: runs a mark-compact collection unconditionally.
    #[doc(hidden)]
    pub fn force_gc(&mut self) {
        self.arena_gc();
    }

    /// Limits the next `solve` call to roughly `conflicts` conflicts; the
    /// call returns [`SolveResult::Unknown`] when exhausted.  The budget is
    /// persistent until changed.
    pub fn set_conflict_budget(&mut self, conflicts: Option<u64>) {
        self.budget = conflicts;
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var(self.assigns.len() as u32);
        self.assigns.push(LBool::Undef);
        self.level.push(0);
        self.reason.push(REASON_NONE);
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.lbd_stamp.push(0);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.heap_pos.push(HEAP_NONE);
        self.frozen.push(false);
        self.eliminated.push(false);
        self.heap_insert(v);
        v
    }

    /// Marks `v` as off-limits for variable elimination.  Call this for
    /// every variable that may later appear in an assumption, a new clause,
    /// or a model read — the simplifier is free to resolve away any other
    /// variable, after which referencing it again is an error.
    pub fn freeze(&mut self, v: Var) {
        debug_assert!(
            !self.eliminated[v.index()],
            "freeze({v:?}) after the variable was eliminated"
        );
        self.frozen[v.index()] = true;
    }

    /// Whether `v` is frozen (protected from elimination).
    pub fn is_frozen(&self, v: Var) -> bool {
        self.frozen[v.index()]
    }

    /// Whether `v` was removed by variable elimination.
    pub fn is_eliminated(&self, v: Var) -> bool {
        self.eliminated[v.index()]
    }

    /// Enables or disables CNF simplification (preprocessing and
    /// inprocessing).  Defaults to enabled.  While a CNF dump directory is
    /// set ([`crate::set_cnf_dump_dir`]) simplification stays off, so the
    /// dumped queries are the raw blasted CNF.
    pub fn set_simplify(&mut self, on: bool) {
        self.simplify_enabled = on && crate::dimacs::cnf_dump_dir().is_none();
    }

    /// Whether simplification is currently enabled.
    pub fn simplify_enabled(&self) -> bool {
        self.simplify_enabled
    }

    /// The model value of `v` after a satisfiable solve, or its fixed value.
    pub fn value(&self, v: Var) -> Option<bool> {
        match self.assigns[v.index()] {
            LBool::Undef => None,
            LBool::True => Some(true),
            LBool::False => Some(false),
        }
    }

    /// The model value of a literal.
    pub fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| l.apply(b))
    }

    #[inline]
    pub(crate) fn lit_lbool(&self, l: Lit) -> LBool {
        match self.assigns[l.var().index()] {
            LBool::Undef => LBool::Undef,
            LBool::True => LBool::from_bool(l.apply(true)),
            LBool::False => LBool::from_bool(l.apply(false)),
        }
    }

    /// Adds a clause; returns `false` when the formula became trivially
    /// unsatisfiable.  Must be called at decision level 0 (the solver
    /// backtracks automatically if needed).
    pub fn add_clause(&mut self, lits: impl IntoIterator<Item = Lit>) -> bool {
        if !self.ok {
            return false;
        }
        self.stats.clauses_added += 1;
        self.cancel_until(0);
        let mut ls: Vec<Lit> = lits.into_iter().collect();
        for &l in &ls {
            assert!(
                !self.eliminated[l.var().index()],
                "clause references eliminated variable {:?}; freeze() it before solving",
                l.var()
            );
        }
        ls.sort();
        ls.dedup();
        // Tautology / falsified-literal simplification (level 0 only).
        let mut simplified = Vec::with_capacity(ls.len());
        let mut prev: Option<Lit> = None;
        for &l in &ls {
            if let Some(p) = prev {
                if p == !l {
                    return true; // tautology: contains l and ¬l
                }
            }
            match self.lit_lbool(l) {
                LBool::True => return true, // already satisfied at level 0
                LBool::False => {}          // drop falsified literal
                LBool::Undef => simplified.push(l),
            }
            prev = Some(l);
        }
        match simplified.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.new_since_simplify += 1;
                self.enqueue(simplified[0], REASON_NONE);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_clause(&simplified, false, 0);
                true
            }
        }
    }

    pub(crate) fn attach_clause(&mut self, lits: &[Lit], learnt: bool, lbd: u32) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt, lbd);
        self.watches[(!lits[0]).index()].push(Watch {
            cref,
            blocker: lits[1],
        });
        self.watches[(!lits[1]).index()].push(Watch {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.stats.learnts += 1;
            self.learnts.push(cref);
            self.arena
                .set_touched(cref, self.stats.conflicts.min(u32::MAX as u64) as u32);
        } else {
            self.new_since_simplify += 1;
            self.clauses.push(cref);
            self.pending_subsumption.push(cref);
        }
        cref
    }

    /// Tombstones a clause (learnt or problem); the arena reclaims the
    /// words at the next GC, watches drop stale entries lazily.
    pub(crate) fn delete_clause(&mut self, cref: ClauseRef) {
        if self.arena.is_deleted(cref) {
            return;
        }
        if self.arena.is_learnt(cref) {
            self.stats.learnts = self.stats.learnts.saturating_sub(1);
        }
        self.arena.delete(cref);
    }

    #[inline]
    pub(crate) fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    pub(crate) fn enqueue(&mut self, l: Lit, reason: ClauseRef) {
        debug_assert_eq!(self.lit_lbool(l), LBool::Undef);
        let v = l.var().index();
        self.assigns[v] = LBool::from_bool(!l.is_neg());
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(l);
    }

    /// Unit propagation; returns the conflicting clause if any.
    pub(crate) fn propagate(&mut self) -> Option<ClauseRef> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let widx = p.index();
            // The false literal being watched is ¬p == clause lit.
            let false_lit = !p;
            let mut i = 0;
            'watches: while i < self.watches[widx].len() {
                let Watch { cref, blocker } = self.watches[widx][i];
                if self.lit_lbool(blocker) == LBool::True {
                    i += 1;
                    continue;
                }
                if self.arena.is_deleted(cref) {
                    self.watches[widx].swap_remove(i);
                    continue;
                }
                if self.arena.lit_at(cref, 0) == false_lit {
                    self.arena.swap_lits(cref, 0, 1);
                }
                debug_assert_eq!(self.arena.lit_at(cref, 1), false_lit);
                let first = self.arena.lit_at(cref, 0);
                if first != blocker && self.lit_lbool(first) == LBool::True {
                    self.watches[widx][i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.arena.len(cref);
                for k in 2..len {
                    let lk = self.arena.lit_at(cref, k);
                    if self.lit_lbool(lk) != LBool::False {
                        self.arena.swap_lits(cref, 1, k);
                        self.watches[widx].swap_remove(i);
                        self.watches[(!lk).index()].push(Watch {
                            cref,
                            blocker: first,
                        });
                        continue 'watches;
                    }
                }
                // Clause is unit or conflicting.
                self.watches[widx][i].blocker = first;
                if self.lit_lbool(first) == LBool::False {
                    self.qhead = self.trail.len();
                    return Some(cref);
                }
                self.enqueue(first, cref);
                i += 1;
            }
        }
        None
    }

    /// First-UIP conflict analysis.  Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // placeholder slot 0
        let mut counter = 0usize;
        let mut p: Option<Lit> = None;
        let mut confl = confl;
        let mut idx = self.trail.len();

        loop {
            self.bump_clause(confl);
            let start = usize::from(p.is_some());
            let clen = self.arena.len(confl);
            for k in start..clen {
                let q = self.arena.lit_at(confl, k);
                let v = q.var();
                if !self.seen[v.index()] && self.level[v.index()] > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.level[v.index()] >= self.decision_level() {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Find the next literal on the trail to resolve on.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var().index()] {
                    break;
                }
            }
            let pl = self.trail[idx];
            self.seen[pl.var().index()] = false;
            counter -= 1;
            if counter == 0 {
                p = Some(pl);
                break;
            }
            confl = self.reason[pl.var().index()];
            debug_assert_ne!(confl, REASON_NONE);
            p = Some(pl);
        }
        learnt[0] = !p.unwrap();

        // Clause minimization: drop literals implied by the rest.
        let mut minimized = vec![learnt[0]];
        for &l in &learnt[1..] {
            if !self.literal_redundant(l) {
                minimized.push(l);
            }
        }
        for &l in &minimized {
            self.seen[l.var().index()] = false;
        }
        // `seen` may still hold literals dropped by minimization; clear them.
        for &l in &learnt[1..] {
            self.seen[l.var().index()] = false;
        }

        // Backjump level = second-highest level in the clause.
        let mut bt = 0;
        if minimized.len() > 1 {
            let mut max_i = 1;
            for i in 2..minimized.len() {
                if self.level[minimized[i].var().index()]
                    > self.level[minimized[max_i].var().index()]
                {
                    max_i = i;
                }
            }
            minimized.swap(1, max_i);
            bt = self.level[minimized[1].var().index()];
        }
        (minimized, bt)
    }

    /// Basic (non-recursive) redundancy check: a literal is redundant when
    /// its reason clause's literals are all already in the learnt clause
    /// (i.e. marked seen) or at level 0.
    fn literal_redundant(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        if r == REASON_NONE {
            return false;
        }
        for k in 1..self.arena.len(r) {
            let q = self.arena.lit_at(r, k);
            let vi = q.var().index();
            if !self.seen[vi] && self.level[vi] > 0 {
                return false;
            }
        }
        true
    }

    /// LBD of a literal slice under the current assignment, via level
    /// stamps (no allocation, no sort).
    fn compute_lbd(&mut self, lits: &[Lit]) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0u32;
        for &l in lits {
            let lvl = self.level[l.var().index()] as usize;
            if self.lbd_stamp[lvl] != stamp {
                self.lbd_stamp[lvl] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    /// LBD of a stored clause under the current assignment.
    fn clause_lbd(&mut self, cref: ClauseRef) -> u32 {
        self.lbd_counter += 1;
        let stamp = self.lbd_counter;
        let mut lbd = 0u32;
        for k in 0..self.arena.len(cref) {
            let lvl = self.level[self.arena.lit_at(cref, k).var().index()] as usize;
            if self.lbd_stamp[lvl] != stamp {
                self.lbd_stamp[lvl] = stamp;
                lbd += 1;
            }
        }
        lbd
    }

    pub(crate) fn cancel_until(&mut self, lvl: u32) {
        if self.decision_level() <= lvl {
            return;
        }
        let bound = self.trail_lim[lvl as usize];
        for i in (bound..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.assigns[v.index()] = LBool::Undef;
            self.phase[v.index()] = !l.is_neg();
            self.reason[v.index()] = REASON_NONE;
            if self.heap_pos[v.index()] == HEAP_NONE {
                self.heap_insert(v);
            }
        }
        self.trail.truncate(bound);
        self.trail_lim.truncate(lvl as usize);
        self.qhead = self.trail.len();
    }

    // ----- VSIDS heap -------------------------------------------------

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in self.activity.iter_mut() {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_pos[v.index()] != HEAP_NONE {
            self.heap_up(self.heap_pos[v.index()]);
        }
    }

    fn decay_var_activity(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// Bumps a learnt clause that took part in conflict analysis: activity,
    /// touched timestamp, and a dynamic LBD refresh (a clause whose literals
    /// now sit on fewer levels re-earns its keep, possibly promoting it to a
    /// longer-lived tier).
    fn bump_clause(&mut self, cref: ClauseRef) {
        if !self.arena.is_learnt(cref) {
            return;
        }
        let mut act = self.arena.activity(cref) + self.cla_inc as f32;
        if act > 1e20 {
            for i in 0..self.learnts.len() {
                let c = self.learnts[i];
                let a = self.arena.activity(c);
                self.arena.set_activity(c, a * 1e-20);
            }
            self.cla_inc *= 1e-20;
            act = self.arena.activity(cref) + self.cla_inc as f32;
        }
        self.arena.set_activity(cref, act);
        self.arena
            .set_touched(cref, self.stats.conflicts.min(u32::MAX as u64) as u32);
        let lbd = self.clause_lbd(cref);
        if lbd < self.arena.lbd(cref) {
            self.arena.set_lbd(cref, lbd);
            let t = tier_for_lbd(lbd);
            if t < self.arena.tier(cref) {
                self.arena.set_tier(cref, t);
            }
        }
    }

    fn heap_insert(&mut self, v: Var) {
        self.heap_pos[v.index()] = self.heap.len();
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    fn heap_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.activity[self.heap[i].index()] <= self.activity[self.heap[parent].index()] {
                break;
            }
            self.heap_swap(i, parent);
            i = parent;
        }
    }

    fn heap_down(&mut self, mut i: usize) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len()
                && self.activity[self.heap[l].index()] > self.activity[self.heap[best].index()]
            {
                best = l;
            }
            if r < self.heap.len()
                && self.activity[self.heap[r].index()] > self.activity[self.heap[best].index()]
            {
                best = r;
            }
            if best == i {
                break;
            }
            self.heap_swap(i, best);
            i = best;
        }
    }

    fn heap_swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.heap_pos[self.heap[i].index()] = i;
        self.heap_pos[self.heap[j].index()] = j;
    }

    fn heap_pop(&mut self) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        self.heap_pos[top.index()] = HEAP_NONE;
        let last = self.heap.pop().unwrap();
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_pos[last.index()] = 0;
            self.heap_down(0);
        }
        Some(top)
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap_pop() {
            if self.assigns[v.index()] == LBool::Undef && !self.eliminated[v.index()] {
                return Some(v);
            }
        }
        None
    }

    // ----- learned-clause DB reduction ---------------------------------

    /// A clause currently serving as the reason for a trail assignment must
    /// not be deleted.  Propagation keeps the asserting literal in slot 0
    /// for as long as the clause is a reason (it can only be swapped out by
    /// becoming false, contradicting the assignment it explains), so the
    /// check is O(1) — no trail walk.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let l0 = self.arena.lit_at(cref, 0);
        self.lit_lbool(l0) == LBool::True && self.reason[l0.var().index()] == cref
    }

    /// Three-tier policy: core (LBD ≤ 3) is kept forever, tier2 (mid-LBD)
    /// survives while recently used in conflicts and is demoted when stale,
    /// and only the local tier is sorted and halved.
    fn reduce_db(&mut self) {
        let conflicts = self.stats.conflicts;
        for i in 0..self.learnts.len() {
            let c = self.learnts[i];
            if self.arena.is_deleted(c) || self.arena.tier(c) != TIER_MID {
                continue;
            }
            if conflicts.saturating_sub(self.arena.touched(c) as u64) > TIER2_UNTOUCHED_LIMIT {
                self.arena.set_tier(c, TIER_LOCAL);
            }
        }
        let mut locals: Vec<ClauseRef> = self
            .learnts
            .iter()
            .copied()
            .filter(|&c| {
                !self.arena.is_deleted(c)
                    && self.arena.tier(c) == TIER_LOCAL
                    && self.arena.len(c) > 2
            })
            .collect();
        // Delete the worst half: high LBD first, low activity as tie-break.
        locals.sort_by(|&a, &b| {
            self.arena.lbd(b).cmp(&self.arena.lbd(a)).then(
                self.arena
                    .activity(a)
                    .partial_cmp(&self.arena.activity(b))
                    .unwrap_or(std::cmp::Ordering::Equal),
            )
        });
        let to_delete = locals.len() / 2;
        let mut deleted = 0;
        for &cref in &locals {
            if deleted >= to_delete {
                break;
            }
            if self.is_locked(cref) {
                continue; // clause is a reason for a current assignment
            }
            self.delete_clause(cref);
            deleted += 1;
        }
        // Prune tombstoned refs so the list does not accumulate garbage.
        let arena = &self.arena;
        self.learnts.retain(|&c| !arena.is_deleted(c));
        self.learnt_since_reduce = 0;
    }

    // ----- arena garbage collection ------------------------------------

    /// Collects when tombstoned words exceed the configured fraction of the
    /// arena.  Called after DB reductions and simplification passes — the
    /// two producers of tombstones.
    pub(crate) fn maybe_gc(&mut self) {
        let wasted = self.arena.wasted_words();
        if wasted == 0 {
            return;
        }
        if (wasted as f64) > self.gc_waste_frac * self.arena.len_words() as f64 {
            self.arena_gc();
        }
    }

    /// Mark-compact collection: copies every live clause into a fresh
    /// buffer and patches all references.
    ///
    /// Patch order matters.  Reasons are *hard* references — conflict
    /// analysis dereferences them without any liveness check — so they are
    /// relocated first, while the tombstone/forwarding state still proves
    /// each one live.  Watches are soft (the propagate loop drops stale
    /// entries lazily) and may legitimately point at tombstoned clauses;
    /// they are swept second, dropping the dead and forwarding the live.
    /// The clause ref lists come last and just filter-map through the
    /// forwarding headers.
    pub(crate) fn arena_gc(&mut self) {
        let live = self.arena.len_words() - self.arena.wasted_words();
        let mut to: Vec<u32> = Vec::with_capacity(live);
        let arena = &mut self.arena;
        for i in 0..self.trail.len() {
            let v = self.trail[i].var().index();
            let r = self.reason[v];
            if r != REASON_NONE {
                self.reason[v] = arena
                    .reloc(r, &mut to)
                    .expect("reason clause tombstoned while locked");
            }
        }
        for wl in self.watches.iter_mut() {
            wl.retain_mut(|w| match arena.reloc(w.cref, &mut to) {
                Some(nr) => {
                    w.cref = nr;
                    true
                }
                None => false,
            });
        }
        for list in [
            &mut self.clauses,
            &mut self.learnts,
            &mut self.pending_subsumption,
        ] {
            let mut kept = Vec::with_capacity(list.len());
            for &c in list.iter() {
                if let Some(nr) = arena.reloc(c, &mut to) {
                    kept.push(nr);
                }
            }
            *list = kept;
        }
        self.arena.replace(to);
        self.stats.arena_gcs += 1;
    }

    // ----- top-level search --------------------------------------------

    /// Solves the current formula.  Returns `Some(true)` when satisfiable,
    /// `Some(false)` when unsatisfiable, `None` when the conflict budget ran
    /// out.
    pub fn solve(&mut self) -> Option<bool> {
        match self.solve_with_assumptions(&[]) {
            SolveResult::Sat => Some(true),
            SolveResult::Unsat => Some(false),
            SolveResult::Unknown => None,
        }
    }

    /// Solves under assumptions: the given literals are fixed for this call
    /// only.  Returns [`SolveResult::Unsat`] when the formula is
    /// unsatisfiable with (or without) the assumptions.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SolveResult {
        if !self.ok {
            return SolveResult::Unsat;
        }
        // Assumption variables become part of the external interface: they
        // must survive (and must not already have fallen to) elimination.
        for &a in assumptions {
            assert!(
                !self.eliminated[a.var().index()],
                "assumption on eliminated variable {:?}; freeze() it before solving",
                a.var()
            );
            self.frozen[a.var().index()] = true;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SolveResult::Unsat;
        }
        if self.simplify_enabled && self.should_preprocess() && !self.simplify() {
            return SolveResult::Unsat;
        }

        let mut conflicts_this_call: u64 = 0;
        let mut restart_idx: u64 = 0;
        let mut restart_budget = RESTART_SCALE * luby(restart_idx);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_this_call += 1;
                self.max_call_conflicts = self.max_call_conflicts.max(conflicts_this_call);
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SolveResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                let bt = bt.min(self.decision_level() - 1);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    if self.lit_lbool(learnt[0]) == LBool::False {
                        self.ok = false;
                        return SolveResult::Unsat;
                    }
                    if self.lit_lbool(learnt[0]) == LBool::Undef {
                        self.enqueue(learnt[0], REASON_NONE);
                    }
                } else {
                    let lbd = self.compute_lbd(&learnt);
                    let first = learnt[0];
                    let cref = self.attach_clause(&learnt, true, lbd);
                    self.enqueue(first, cref);
                    self.learnt_since_reduce += 1;
                }
                self.decay_var_activity();
                self.cla_inc /= 0.999;

                if let Some(b) = self.budget {
                    if conflicts_this_call >= b {
                        self.cancel_until(0);
                        return SolveResult::Unknown;
                    }
                }
                if self.interrupted() {
                    self.cancel_until(0);
                    return SolveResult::Unknown;
                }
                if conflicts_this_call >= restart_budget {
                    restart_idx += 1;
                    restart_budget = conflicts_this_call + RESTART_SCALE * luby(restart_idx);
                    self.stats.restarts += 1;
                    self.cancel_until(0);
                    // Inprocessing: re-run the simplifier between restarts
                    // once a hard query has accumulated enough conflicts.
                    if self.simplify_enabled && self.should_inprocess() {
                        self.inprocess_gap = self.inprocess_gap.saturating_mul(2);
                        if !self.simplify() {
                            return SolveResult::Unsat;
                        }
                    }
                }
                if self.learnt_since_reduce > self.max_learnts {
                    self.reduce_db();
                    self.maybe_gc();
                }
            } else {
                // No conflict: establish assumptions (MiniSat scheme — while
                // the decision level is inside the assumption prefix, every
                // existing decision is an assumption, so a falsified
                // assumption here is implied by earlier assumptions and the
                // call is UNSAT).
                let mut decided_assumption = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_lbool(a) {
                        LBool::True => {
                            // Already implied: open a dummy decision level so
                            // assumption indices keep matching levels.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            return SolveResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.enqueue(a, REASON_NONE);
                            decided_assumption = true;
                            break;
                        }
                    }
                }
                if decided_assumption {
                    continue;
                }
                match self.pick_branch_var() {
                    None => {
                        self.extend_model();
                        return SolveResult::Sat;
                    }
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.phase[v.index()];
                        self.enqueue(Lit::new(v, !phase), REASON_NONE);
                    }
                }
            }
        }
    }

    /// Returns all clauses (for DIMACS export); level-0 units are included.
    pub(crate) fn export_clauses(&self) -> Vec<Vec<Lit>> {
        let mut out: Vec<Vec<Lit>> = self
            .clauses
            .iter()
            .filter(|&&c| !self.arena.is_deleted(c))
            .map(|&c| self.arena.lits(c).to_vec())
            .collect();
        // Level-0 units.
        let bound = self.trail_lim.first().copied().unwrap_or(self.trail.len());
        for &l in &self.trail[..bound] {
            if self.reason[l.var().index()] == REASON_NONE {
                out.push(vec![l]);
            }
        }
        out
    }
}

/// The Luby restart sequence: 1,1,2,1,1,2,4,...
fn luby(i: u64) -> u64 {
    let mut k = 1u32;
    while (1u64 << k) < i + 2 {
        k += 1;
    }
    let mut i = i;
    let mut kk = k;
    loop {
        if (1u64 << kk) - 1 == i + 1 {
            return 1u64 << (kk - 1);
        }
        if i + 1 < (1u64 << kk) {
            kk -= 1;
            if kk == 0 {
                return 1;
            }
            continue;
        }
        i -= (1u64 << kk) - 1;
        kk = 1;
        while (1u64 << kk) < i + 2 {
            kk += 1;
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // pigeonhole encodings index by (pigeon, hole)
mod tests {
    use super::*;

    fn lits(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn trivial_sat() {
        let mut s = Solver::new();
        let v = s.new_var();
        assert!(s.add_clause([Lit::pos(v)]));
        assert_eq!(s.solve(), Some(true));
        assert_eq!(s.value(v), Some(true));
    }

    #[test]
    fn trivial_unsat() {
        let mut s = Solver::new();
        let v = s.new_var();
        s.add_clause([Lit::pos(v)]);
        assert!(!s.add_clause([Lit::neg(v)]));
        assert_eq!(s.solve(), Some(false));
    }

    #[test]
    fn implication_chain() {
        let mut s = Solver::new();
        let ls = lits(&mut s, 20);
        for w in ls.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        s.add_clause([ls[0]]);
        assert_eq!(s.solve(), Some(true));
        for &l in &ls {
            assert_eq!(s.lit_value(l), Some(true));
        }
    }

    #[test]
    fn xor_chain_unsat() {
        // x0 ^ x1 = 1, x1 ^ x2 = 1, x0 ^ x2 = 1 is unsatisfiable.
        let mut s = Solver::new();
        let ls = lits(&mut s, 3);
        let xor1 = |s: &mut Solver, a: Lit, b: Lit| {
            s.add_clause([a, b]);
            s.add_clause([!a, !b]);
        };
        xor1(&mut s, ls[0], ls[1]);
        xor1(&mut s, ls[1], ls[2]);
        xor1(&mut s, ls[0], ls[2]);
        assert_eq!(s.solve(), Some(false));
    }

    #[test]
    fn pigeonhole_3_into_2() {
        // 3 pigeons, 2 holes: unsatisfiable, requires real search.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3)
            .map(|_| (0..2).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..2 {
            for i in 0..3 {
                for j in (i + 1)..3 {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert_eq!(s.solve(), Some(false));
    }

    #[test]
    fn pigeonhole_5_into_4() {
        let n = 5;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert_eq!(s.solve(), Some(false));
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn assumptions_flip() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        // Both variables appear in future assumptions: freeze them so the
        // preprocessor cannot resolve them away in the meantime.
        s.freeze(a.var());
        s.freeze(b.var());
        s.add_clause([a, b]);
        assert_eq!(s.solve_with_assumptions(&[!a]), SolveResult::Sat);
        assert_eq!(s.lit_value(b), Some(true));
        assert_eq!(s.solve_with_assumptions(&[!b]), SolveResult::Sat);
        assert_eq!(s.lit_value(a), Some(true));
        assert_eq!(s.solve_with_assumptions(&[!a, !b]), SolveResult::Unsat);
        // Solver remains usable after an assumption failure.
        assert_eq!(s.solve(), Some(true));
    }

    #[test]
    fn incremental_clause_addition() {
        let mut s = Solver::new();
        let ls = lits(&mut s, 4);
        // Blocking clauses over model values arrive later; the variables are
        // part of the external interface and must survive simplification.
        for &l in &ls {
            s.freeze(l.var());
        }
        s.add_clause(ls.iter().copied());
        assert_eq!(s.solve(), Some(true));
        // Exclude models one at a time: 4 vars with only the all-false model
        // forbidden by the original clause -> 15 models.
        let mut count = 0;
        while s.solve() == Some(true) {
            count += 1;
            let blocking: Vec<Lit> = ls
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(blocking);
            assert!(count <= 15, "too many models");
        }
        assert_eq!(count, 15);
    }

    #[test]
    fn unit_under_assumption_does_not_stick() {
        let mut s = Solver::new();
        let a = Lit::pos(s.new_var());
        let b = Lit::pos(s.new_var());
        s.freeze(a.var());
        s.freeze(b.var());
        s.add_clause([!a, b]);
        assert_eq!(s.solve_with_assumptions(&[a]), SolveResult::Sat);
        assert_eq!(s.lit_value(b), Some(true));
        // b must not be permanently fixed.
        assert_eq!(s.solve_with_assumptions(&[!b]), SolveResult::Sat);
        assert_eq!(s.lit_value(a), Some(false));
    }

    /// `n` pigeons into `n - 1` holes: unsatisfiable, and the search needs
    /// more conflicts as `n` grows.
    fn pigeonhole(n: usize) -> Solver {
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n)
            .map(|_| (0..n - 1).map(|_| Lit::pos(s.new_var())).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        for h in 0..n - 1 {
            for i in 0..n {
                for j in (i + 1)..n {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        s
    }

    #[test]
    fn budget_returns_unknown_or_verdict() {
        // Pigeonhole 8/7 is hard enough to exceed 10 conflicts.
        let mut s = pigeonhole(8);
        s.set_conflict_budget(Some(10));
        assert_eq!(s.solve(), None);
        s.set_conflict_budget(None);
        assert_eq!(s.solve(), Some(false));
    }

    #[test]
    fn interrupt_deadline_and_flag_return_unknown() {
        // An already-expired deadline trips by itself: no thread sets the
        // flag.
        let mut s = pigeonhole(6);
        s.set_interrupt(Some(Interrupt {
            flag: Arc::default(),
            deadline: Some(Instant::now()),
        }));
        assert_eq!(s.solve(), None);
        s.set_interrupt(None);
        assert_eq!(s.solve(), Some(false));
        // A set flag with no deadline.
        let mut s = pigeonhole(6);
        s.set_interrupt(Some(Interrupt {
            flag: Arc::new(AtomicBool::new(true)),
            deadline: None,
        }));
        assert_eq!(s.solve(), None);
    }

    #[test]
    fn luby_sequence_prefix() {
        let expected = [1u64, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        for (i, &e) in expected.iter().enumerate() {
            assert_eq!(luby(i as u64), e, "luby({i})");
        }
    }

    /// Brute-force model check used by the random test below.
    fn brute_force(num_vars: usize, clauses: &[Vec<(usize, bool)>]) -> bool {
        'outer: for m in 0u64..(1 << num_vars) {
            for c in clauses {
                if !c.iter().any(|&(v, neg)| ((m >> v) & 1 == 1) != neg) {
                    continue 'outer;
                }
            }
            return true;
        }
        false
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        let mut rng = ph_bits::Rng::seed_from_u64(0x9a11 + 42);
        for round in 0..200 {
            let nv = rng.gen_range(3..=10usize);
            let nc = rng.gen_range(1..=(nv * 5));
            let clauses: Vec<Vec<(usize, bool)>> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let expected = brute_force(nv, &clauses);
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            let mut ok = true;
            for c in &clauses {
                ok &= s.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)));
            }
            let got = if ok { s.solve() == Some(true) } else { false };
            assert_eq!(got, expected, "round {round} disagreed");
            if got {
                // Verify the model satisfies every clause.
                for c in &clauses {
                    assert!(c
                        .iter()
                        .any(|&(v, neg)| { s.value(vars[v]).unwrap() != neg }));
                }
            }
        }
    }

    #[test]
    fn random_sat_with_assumptions_agrees() {
        let mut rng = ph_bits::Rng::seed_from_u64(7);
        for _ in 0..100 {
            let nv = rng.gen_range(3..=8usize);
            let nc = rng.gen_range(1..=nv * 4);
            let clauses: Vec<Vec<(usize, bool)>> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();
            let n_assume = rng.gen_range(0..=nv.min(3));
            let assumes: Vec<(usize, bool)> =
                (0..n_assume).map(|i| (i, rng.gen_bool(0.5))).collect();
            // Brute force with assumptions folded in as unit clauses.
            let mut all = clauses.clone();
            for &a in &assumes {
                all.push(vec![a]);
            }
            let expected = brute_force(nv, &all);

            let mut s = Solver::new();
            let vars: Vec<Var> = (0..nv).map(|_| s.new_var()).collect();
            let mut ok = true;
            for c in &clauses {
                ok &= s.add_clause(c.iter().map(|&(v, neg)| Lit::new(vars[v], neg)));
            }
            let assumption_lits: Vec<Lit> = assumes
                .iter()
                .map(|&(v, neg)| Lit::new(vars[v], neg))
                .collect();
            let got = if !ok {
                false
            } else {
                s.solve_with_assumptions(&assumption_lits) == SolveResult::Sat
            };
            assert_eq!(got, expected);
        }
    }

    /// Property behind the incremental verifier: repeatedly solving one
    /// solver under different assumption sets (learned clauses accumulating
    /// across queries) must agree, query by query, with a fresh solver
    /// given the same clauses plus the assumptions as unit clauses.
    #[test]
    fn incremental_assumptions_agree_with_fresh_unit_solve() {
        let mut rng = ph_bits::Rng::seed_from_u64(0x1ac5_0001);
        for _ in 0..40 {
            let nv = rng.gen_range(4..=9usize);
            let nc = rng.gen_range(2..=nv * 4);
            let clauses: Vec<Vec<(usize, bool)>> = (0..nc)
                .map(|_| {
                    (0..3)
                        .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                        .collect()
                })
                .collect();

            // One persistent solver answers a sequence of assumption sets.
            let mut inc = Solver::new();
            let inc_vars: Vec<Var> = (0..nv).map(|_| inc.new_var()).collect();
            // Any variable may show up in a later assumption set.
            for &v in &inc_vars {
                inc.freeze(v);
            }
            let mut inc_ok = true;
            for c in &clauses {
                inc_ok &= inc.add_clause(c.iter().map(|&(v, neg)| Lit::new(inc_vars[v], neg)));
            }

            for _query in 0..6 {
                let n_assume = rng.gen_range(0..=nv.min(4));
                let assumes: Vec<(usize, bool)> = (0..n_assume)
                    .map(|_| (rng.gen_range(0..nv), rng.gen_bool(0.5)))
                    .collect();

                // Fresh solver: same clauses, assumptions as units.
                let mut fresh = Solver::new();
                let fv: Vec<Var> = (0..nv).map(|_| fresh.new_var()).collect();
                let mut fresh_ok = inc_ok;
                for c in &clauses {
                    fresh_ok &= fresh.add_clause(c.iter().map(|&(v, neg)| Lit::new(fv[v], neg)));
                }
                for &(v, neg) in &assumes {
                    fresh_ok &= fresh.add_clause([Lit::new(fv[v], neg)]);
                }
                let fresh_sat = fresh_ok && fresh.solve() == Some(true);

                let lits: Vec<Lit> = assumes
                    .iter()
                    .map(|&(v, neg)| Lit::new(inc_vars[v], neg))
                    .collect();
                let inc_sat = inc_ok && inc.solve_with_assumptions(&lits) == SolveResult::Sat;
                assert_eq!(
                    inc_sat, fresh_sat,
                    "clauses {clauses:?} assumes {assumes:?}"
                );
                if inc_sat {
                    // The incremental model must satisfy clauses AND assumptions.
                    for c in &clauses {
                        assert!(c
                            .iter()
                            .any(|&(v, neg)| inc.value(inc_vars[v]).unwrap() != neg));
                    }
                    for &(v, neg) in &assumes {
                        assert_eq!(inc.value(inc_vars[v]).unwrap(), !neg);
                    }
                }
            }
        }
    }
}
