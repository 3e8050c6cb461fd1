//! SatELite-style clause-database simplification.
//!
//! Three techniques run together in one pass over the problem clauses,
//! always at decision level 0:
//!
//! * **(Self-)subsumption** with occurrence lists and the 32-bit clause
//!   signatures stored in the arena headers: a clause C deletes any clause
//!   D ⊇ C, and strengthens any D that contains C with exactly one literal
//!   flipped (self-subsuming resolution removes the flipped literal from D).
//! * **Bounded variable elimination**: a non-frozen variable `v` is resolved
//!   away when the set of non-tautological resolvents of its positive and
//!   negative occurrences is no larger than the clauses removed and no
//!   resolvent exceeds a length cap.  The smaller occurrence side is saved so
//!   [`Solver::extend_model`] can reconstruct `v`'s value from a model of the
//!   simplified formula.
//! * **Failed-literal probing**: a bounded number of literals from binary
//!   clauses are assumed one at a time; a propagation conflict fixes the
//!   negation at the top level.
//!
//! Clauses live in the flat arena (see [`crate::arena`]): deletion
//! tombstones in place, strengthening shrinks in place (the freed words
//! count as waste), and the occurrence lists hold arena references that are
//! validated lazily on use.  The pass ends with [`Solver::maybe_gc`], so the
//! tombstones it produces are the natural trigger for compaction.
//!
//! The pass coexists with incremental solving through *frozen* variables:
//! anything that may later appear in an assumption, a new clause or a model
//! read must be protected with [`Solver::freeze`] (the `ph-smt` layer does
//! this automatically for every literal it hands out).  Clauses added inside
//! an `Smt::push` scope carry a frozen selector-guard literal, which rides
//! through every resolvent, so scoped clauses stay eliminable without ever
//! leaking out of their scope.
//!
//! Everything simplification removes is implied by what stays (subsumption,
//! strengthening, probing) except variable elimination, which is only
//! equisatisfiable — hence the reconstruction stack replayed in reverse by
//! `extend_model` after every satisfiable verdict.

use crate::lit::{Lit, Var};
use crate::solver::{ClauseRef, LBool, Solver, Watch, REASON_NONE};
use std::time::Instant;

/// Resolvents longer than this veto elimination of their pivot variable.
const MAX_RESOLVENT_LEN: usize = 20;
/// Variables occurring more often than this in *both* polarities are not
/// elimination candidates (counting their resolvents would be quadratic).
const MAX_OCC_SIDE: usize = 12;
/// Upper bound on occurrence-list work per subsumption candidate.
const MAX_SUBSUMPTION_OCC: usize = 500;
/// Failed-literal probes per simplification pass.
const MAX_PROBES: usize = 64;
/// Preprocess when at least this many clauses arrived since the last pass.
const PREPROCESS_MIN_NEW: usize = 64;
/// The first pass is deferred until some single solve call has spent this
/// many conflicts — evidence the stream's queries are individually hard
/// enough that shrinking the database can pay for an occurrence-list pass
/// over all of it.  Hardness is a per-query property: replaying identical
/// query streams (`cnf_replay`) shows the engine wins on streams whose
/// queries run to tens of thousands of conflicts and loses on streams of
/// many easy queries, even when the latter *accumulate* a large session
/// total.
pub(crate) const PREPROCESS_MIN_CONFLICTS: u64 = 5_000;
/// Conflicts between inprocessing passes start here and double each time.
pub(crate) const INPROCESS_GAP_INIT: u64 = 10_000;

/// Scratch state for one simplification pass.
struct SimpCtx {
    /// Occurrence lists over live problem clauses, indexed by `Lit::index`.
    /// Entries go stale on deletion/strengthening; validated on use.
    occ: Vec<Vec<ClauseRef>>,
    /// Unit literals waiting to be applied through the occurrence lists.
    units: Vec<Lit>,
    /// Clauses whose subsumption potential changed (new or strengthened).
    queue: Vec<ClauseRef>,
    /// Elimination candidates for this pass (empty = every variable).  On
    /// non-first passes only variables of newly arrived clauses are
    /// reconsidered; everything else was already tried against an
    /// occurrence set that has not changed since.
    touched: Vec<Var>,
}

enum SubsumeResult {
    No,
    Subsumed,
    /// `c` with this literal flipped is contained in `d`: remove the flipped
    /// literal from `d` (self-subsuming resolution).
    Strengthen(Lit),
}

/// Does `c` subsume `d`?  Both literal slices must be sorted.
fn subsume_check(c: &[Lit], d: &[Lit]) -> SubsumeResult {
    let mut flip: Option<Lit> = None;
    let mut di = 0;
    'outer: for &lc in c {
        while di < d.len() {
            let ld = d[di];
            if ld.var() == lc.var() {
                di += 1;
                if ld == lc {
                    continue 'outer;
                }
                if flip.is_some() {
                    return SubsumeResult::No;
                }
                flip = Some(lc);
                continue 'outer;
            }
            if ld.var() > lc.var() {
                return SubsumeResult::No;
            }
            di += 1;
        }
        return SubsumeResult::No;
    }
    match flip {
        None => SubsumeResult::Subsumed,
        Some(l) => SubsumeResult::Strengthen(l),
    }
}

/// Resolves two sorted, tautology-free clauses on `pivot`; `None` when the
/// resolvent is a tautology.  The output is sorted and deduplicated.
fn resolve(a: &[Lit], b: &[Lit], pivot: Var) -> Option<Vec<Lit>> {
    let mut out = Vec::with_capacity((a.len() + b.len()).saturating_sub(2));
    let (mut i, mut j) = (0, 0);
    loop {
        while i < a.len() && a[i].var() == pivot {
            i += 1;
        }
        while j < b.len() && b[j].var() == pivot {
            j += 1;
        }
        match (i < a.len(), j < b.len()) {
            (false, false) => break,
            (true, false) => {
                out.push(a[i]);
                i += 1;
            }
            (false, true) => {
                out.push(b[j]);
                j += 1;
            }
            (true, true) => {
                let (la, lb) = (a[i], b[j]);
                if la == lb {
                    out.push(la);
                    i += 1;
                    j += 1;
                } else if la.var() == lb.var() {
                    return None; // opposite polarities of a merged variable
                } else if la < lb {
                    out.push(la);
                    i += 1;
                } else {
                    out.push(lb);
                    j += 1;
                }
            }
        }
    }
    Some(out)
}

impl Solver {
    /// Runs one full simplification pass (subsumption, bounded variable
    /// elimination, failed-literal probing) at decision level 0.  Returns
    /// `false` when the formula was proven unsatisfiable.
    ///
    /// Called automatically as preprocessing by `solve` and as inprocessing
    /// between restarts; public so tools and tests can force a pass.
    pub fn simplify(&mut self) -> bool {
        // A SAT verdict leaves the trail extended so the model can be read;
        // simplification restructures clauses and must start from the root
        // level (this invalidates any previously read model, like any other
        // mutation between solves).
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        if self.propagate().is_some() {
            self.ok = false;
            return false;
        }
        let tracer = ph_obs::current();
        let _span = tracer.span("sat.simplify");
        let before = self.stats;
        let t0 = Instant::now();
        let ok = self.simplify_pass();
        self.stats.simplify_time_ns += t0.elapsed().as_nanos() as u64;
        self.simplified_once = true;
        self.new_since_simplify = 0;
        self.pending_subsumption.clear();
        self.conflicts_at_simplify = self.stats.conflicts;
        if ok {
            // The pass is the main tombstone producer; collect the arena
            // here if the waste crossed the threshold.  All level-0 reasons
            // at this point reference live clauses (deleted ones were
            // cleared by the watch rebuild).
            self.maybe_gc();
        }
        self.stats
            .delta_since(&before)
            .emit(&tracer, "sat.simplify");
        if !ok {
            self.ok = false;
        }
        ok
    }

    /// Preprocessing gate.  A pass costs a full occurrence-list rebuild, so
    /// after the first one the database must have grown *geometrically*
    /// (doubled) to warrant another — an absolute threshold would re-run
    /// preprocessing on almost every incremental `solve` of a CEGIS loop,
    /// and the rebuilds would dominate the solving they save.  Doubling
    /// bounds the lifetime number of passes at log₂ of the final size.
    pub(crate) fn should_preprocess(&self) -> bool {
        if self.new_since_simplify == 0 {
            return false;
        }
        if !self.simplified_once {
            // A pass costs O(database) and pays off only by making *search*
            // cheaper, so wait for evidence that individual queries are
            // hard.  Streams whose every query is dispatched in a few
            // hundred conflicts never simplify at all — and cost exactly
            // nothing, no matter how many queries arrive.
            return self.max_call_conflicts >= PREPROCESS_MIN_CONFLICTS;
        }
        self.new_since_simplify >= PREPROCESS_MIN_NEW
            && self.new_since_simplify >= self.num_clauses() / 2
    }

    /// Inprocessing gate, consulted between restarts: the same per-query
    /// hardness evidence as preprocessing, plus a geometrically growing
    /// conflict gap since the last pass so long runs aren't dominated by
    /// simplification.
    pub(crate) fn should_inprocess(&self) -> bool {
        self.max_call_conflicts >= PREPROCESS_MIN_CONFLICTS
            && self.stats.conflicts >= self.conflicts_at_simplify + self.inprocess_gap
    }

    fn simplify_pass(&mut self) -> bool {
        // Seed the subsumption queue: on the first pass every clause is new;
        // afterwards only clauses added since the previous pass (plus
        // whatever this pass strengthens) need checking.
        let first = !self.simplified_once;
        let pending = std::mem::take(&mut self.pending_subsumption);

        // Watches are rebuilt from scratch at the end of the pass, so the
        // occurrence-list phases can restructure clauses freely.
        for w in self.watches.iter_mut() {
            w.clear();
        }
        let mut ctx = SimpCtx {
            occ: Vec::new(),
            units: Vec::new(),
            queue: Vec::new(),
            touched: Vec::new(),
        };
        if !self.strip_clauses(&mut ctx) {
            return false;
        }
        self.build_occ(&mut ctx);
        if first {
            ctx.queue.extend(
                self.clauses
                    .iter()
                    .copied()
                    .filter(|&c| !self.arena.is_deleted(c)),
            );
        } else {
            ctx.queue.extend(
                pending
                    .into_iter()
                    .filter(|&c| !self.arena.is_deleted(c) && !self.arena.is_learnt(c)),
            );
            for i in 0..ctx.queue.len() {
                let c = ctx.queue[i];
                for &l in self.arena.lits(c) {
                    ctx.touched.push(l.var());
                }
            }
            ctx.touched.sort_unstable();
            ctx.touched.dedup();
        }
        if !self.apply_units(&mut ctx) {
            return false;
        }
        if !self.subsume_pass(&mut ctx) {
            return false;
        }
        for _ in 0..2 {
            if self.interrupted() {
                break;
            }
            let n = match self.eliminate_pass(&mut ctx) {
                None => return false,
                Some(n) => n,
            };
            if !self.subsume_pass(&mut ctx) {
                return false;
            }
            if n == 0 {
                break;
            }
        }
        if !self.rebuild_watches() {
            return false;
        }
        self.probe_failed_literals()
    }

    /// Is `cref` still a live problem clause containing `l`?  (Occurrence
    /// lists are updated lazily, so entries must be validated on use.)
    fn occ_valid(&self, cref: ClauseRef, l: Lit) -> bool {
        !self.arena.is_deleted(cref)
            && !self.arena.is_learnt(cref)
            && self.arena.lits(cref).binary_search(&l).is_ok()
    }

    /// Drops satisfied clauses, removes falsified literals, and re-sorts
    /// every clause in place (search may have permuted watched literals).
    fn strip_clauses(&mut self, ctx: &mut SimpCtx) -> bool {
        let refs: Vec<ClauseRef> = self
            .clauses
            .iter()
            .chain(self.learnts.iter())
            .copied()
            .collect();
        for cref in refs {
            if self.arena.is_deleted(cref) {
                continue;
            }
            let len = self.arena.len(cref);
            let mut kept: Vec<Lit> = Vec::with_capacity(len);
            let mut satisfied = false;
            for k in 0..len {
                let l = self.arena.lit_at(cref, k);
                match self.lit_lbool(l) {
                    LBool::True => {
                        satisfied = true;
                        break;
                    }
                    LBool::False => {}
                    LBool::Undef => kept.push(l),
                }
            }
            if satisfied {
                self.delete_clause(cref);
                continue;
            }
            kept.sort();
            match kept.len() {
                0 => return false,
                1 => {
                    ctx.units.push(kept[0]);
                    self.delete_clause(cref);
                }
                _ => {
                    for (k, &l) in kept.iter().enumerate() {
                        self.arena.set_lit(cref, k, l);
                    }
                    self.arena.shrink(cref, kept.len());
                    if !self.arena.is_learnt(cref) {
                        self.arena.recompute_sig(cref);
                    }
                }
            }
        }
        true
    }

    fn build_occ(&mut self, ctx: &mut SimpCtx) {
        ctx.occ.clear();
        ctx.occ.resize(self.watches.len(), Vec::new());
        for i in 0..self.clauses.len() {
            let cref = self.clauses[i];
            if self.arena.is_deleted(cref) {
                continue;
            }
            for &l in self.arena.lits(cref) {
                ctx.occ[l.index()].push(cref);
            }
        }
    }

    /// Applies queued top-level units through the occurrence lists until a
    /// fixpoint: satisfied clauses are deleted, falsified literals removed,
    /// cascading new units re-queued.
    fn apply_units(&mut self, ctx: &mut SimpCtx) -> bool {
        let mut polls = 0usize;
        let mut fast = false;
        while let Some(u) = ctx.units.pop() {
            polls += 1;
            if !fast && polls.is_multiple_of(64) && self.interrupted() {
                // Queued units are facts whose source clauses are already
                // gone, so they must still be enqueued — but the
                // occurrence-list cleanup they trigger is optional
                // (`rebuild_watches` redoes it): skip it so a cancelled
                // race branch winds down promptly.
                fast = true;
            }
            match self.lit_lbool(u) {
                LBool::True => continue,
                LBool::False => return false,
                LBool::Undef => self.enqueue(u, REASON_NONE),
            }
            if fast {
                continue;
            }
            let sat_list = std::mem::take(&mut ctx.occ[u.index()]);
            for cref in sat_list {
                if self.occ_valid(cref, u) {
                    self.delete_clause(cref);
                }
            }
            let neg = !u;
            let str_list = std::mem::take(&mut ctx.occ[neg.index()]);
            for cref in str_list {
                if !self.occ_valid(cref, neg) {
                    continue;
                }
                self.arena.remove_lit(cref, neg);
                self.stats.strengthened_clauses += 1;
                match self.arena.len(cref) {
                    1 => {
                        let l0 = self.arena.lit_at(cref, 0);
                        ctx.units.push(l0);
                        self.delete_clause(cref);
                    }
                    _ => ctx.queue.push(cref),
                }
            }
        }
        true
    }

    /// Backward subsumption and self-subsuming resolution driven by the
    /// clause queue.
    fn subsume_pass(&mut self, ctx: &mut SimpCtx) -> bool {
        let mut polls = 0usize;
        while let Some(cref) = ctx.queue.pop() {
            // Subsumption is purely an optimization, so draining the queue
            // early on interrupt is sound; without this poll a long queue
            // could delay cancellation of a losing race branch until the
            // next per-conflict check.
            polls += 1;
            if polls.is_multiple_of(64) && self.interrupted() {
                break;
            }
            if self.arena.is_deleted(cref) || self.arena.is_learnt(cref) {
                continue;
            }
            // Snapshot C's literals: strengthening C mid-loop keeps the
            // snapshot implied by the database, so matches stay sound.
            let lits: Vec<Lit> = self.arena.lits(cref).to_vec();
            let Some(best) = lits.iter().map(|l| l.var()).min_by_key(|v| {
                ctx.occ[Lit::pos(*v).index()].len() + ctx.occ[Lit::neg(*v).index()].len()
            }) else {
                continue;
            };
            let mut cands: Vec<ClauseRef> = Vec::new();
            cands.extend_from_slice(&ctx.occ[Lit::pos(best).index()]);
            cands.extend_from_slice(&ctx.occ[Lit::neg(best).index()]);
            if cands.len() > MAX_SUBSUMPTION_OCC {
                continue;
            }
            let csig = self.arena.sig(cref);
            for d in cands {
                if d == cref {
                    continue;
                }
                if self.arena.is_deleted(d)
                    || csig & !self.arena.sig(d) != 0
                    || self.arena.len(d) < lits.len()
                {
                    continue;
                }
                match subsume_check(&lits, self.arena.lits(d)) {
                    SubsumeResult::No => {}
                    SubsumeResult::Subsumed => {
                        self.delete_clause(d);
                        self.stats.subsumed_clauses += 1;
                    }
                    SubsumeResult::Strengthen(l) => {
                        let rem = !l;
                        self.arena.remove_lit(d, rem);
                        self.stats.strengthened_clauses += 1;
                        match self.arena.len(d) {
                            1 => {
                                let u = self.arena.lit_at(d, 0);
                                ctx.units.push(u);
                                self.delete_clause(d);
                                if !self.apply_units(ctx) {
                                    return false;
                                }
                                if self.arena.is_deleted(cref) {
                                    break;
                                }
                            }
                            _ => ctx.queue.push(d),
                        }
                    }
                }
            }
        }
        true
    }

    /// One bounded-variable-elimination sweep in increasing occurrence-cost
    /// order.  Returns the number of variables eliminated, or `None` on a
    /// top-level contradiction.
    fn eliminate_pass(&mut self, ctx: &mut SimpCtx) -> Option<usize> {
        let nv = self.num_vars();
        let mut cand: Vec<(usize, Var)> = Vec::new();
        let pool: Vec<Var> = if ctx.touched.is_empty() {
            (0..nv as u32).map(Var).collect()
        } else {
            ctx.touched.clone()
        };
        for v in pool {
            let vi = v.index();
            if self.frozen[vi] || self.eliminated[vi] || self.assigns[vi] != LBool::Undef {
                continue;
            }
            let p = self.occ_compact(ctx, Lit::pos(v));
            let n = self.occ_compact(ctx, Lit::neg(v));
            cand.push((p * n, v));
        }
        cand.sort_unstable_by_key(|&(cost, _)| cost);
        let mut count = 0usize;
        for (i, &(_, v)) in cand.iter().enumerate() {
            if i.is_multiple_of(64) && self.interrupted() {
                break;
            }
            let vi = v.index();
            if self.eliminated[vi] || self.assigns[vi] != LBool::Undef {
                continue; // state changed under an earlier elimination
            }
            match self.try_eliminate(v, ctx) {
                None => return None,
                Some(false) => {}
                Some(true) => {
                    count += 1;
                    if !self.apply_units(ctx) {
                        return None;
                    }
                }
            }
        }
        Some(count)
    }

    /// Prunes stale entries from one occurrence list and returns its length.
    fn occ_compact(&mut self, ctx: &mut SimpCtx, l: Lit) -> usize {
        let arena = &self.arena;
        let list = &mut ctx.occ[l.index()];
        list.retain(|&c| {
            !arena.is_deleted(c) && !arena.is_learnt(c) && arena.lits(c).binary_search(&l).is_ok()
        });
        list.len()
    }

    /// Attempts to resolve `v` out of the problem.  `Some(true)` on success,
    /// `Some(false)` when a bound vetoed it, `None` on contradiction.
    fn try_eliminate(&mut self, v: Var, ctx: &mut SimpCtx) -> Option<bool> {
        let pl = Lit::pos(v);
        let nl = Lit::neg(v);
        self.occ_compact(ctx, pl);
        self.occ_compact(ctx, nl);
        let pos = ctx.occ[pl.index()].clone();
        let neg = ctx.occ[nl.index()].clone();
        if pos.len() > MAX_OCC_SIDE && neg.len() > MAX_OCC_SIDE {
            return Some(false);
        }
        // The no-growth rule: keep at most as many resolvents as the clauses
        // elimination removes.
        let limit = pos.len() + neg.len();
        let mut resolvents: Vec<Vec<Lit>> = Vec::new();
        for &p in &pos {
            for &n in &neg {
                match resolve(self.arena.lits(p), self.arena.lits(n), v) {
                    None => {} // tautology: does not count against the limit
                    Some(r) => {
                        if r.len() > MAX_RESOLVENT_LEN || resolvents.len() >= limit {
                            return Some(false);
                        }
                        resolvents.push(r);
                    }
                }
            }
        }
        // Commit.  Save the smaller occurrence side for model
        // reconstruction: with all resolvents satisfied, falsifying the
        // pivot satisfies the unsaved side, and flipping it when a saved
        // clause is otherwise unsatisfied fixes the rest.
        let (pivot, saved_refs) = if pos.len() <= neg.len() {
            (pl, &pos)
        } else {
            (nl, &neg)
        };
        let saved: Vec<Vec<Lit>> = saved_refs
            .iter()
            .map(|&c| self.arena.lits(c).to_vec())
            .collect();
        self.elim_stack.push((pivot, saved));
        for &c in pos.iter().chain(neg.iter()) {
            self.delete_clause(c);
        }
        self.eliminated[v.index()] = true;
        self.stats.eliminated_vars += 1;
        for r in resolvents {
            match r.len() {
                0 => return None,
                1 => ctx.units.push(r[0]),
                _ => self.attach_resolvent(&r, ctx),
            }
        }
        Some(true)
    }

    /// Adds an elimination resolvent as a problem clause.  Watches are down
    /// during the pass and `clauses_added` counts only user submissions, so
    /// this bypasses `add_clause`/`attach_clause`.
    fn attach_resolvent(&mut self, lits: &[Lit], ctx: &mut SimpCtx) {
        let cref = self.arena.alloc(lits, false, 0);
        self.clauses.push(cref);
        for &l in lits {
            ctx.occ[l.index()].push(cref);
        }
        ctx.queue.push(cref);
    }

    /// Reattaches watches after the occurrence-list phases: sweeps learned
    /// clauses that mention eliminated variables, runs units to fixpoint by
    /// scanning (watches are down), strips assigned literals, and re-watches
    /// every surviving clause.  Tombstoned refs are pruned from both clause
    /// lists on the way out, so only the arena still carries the garbage
    /// (until [`Solver::maybe_gc`]).
    fn rebuild_watches(&mut self) -> bool {
        for w in self.watches.iter_mut() {
            w.clear();
        }
        for i in 0..self.learnts.len() {
            let cref = self.learnts[i];
            if self.arena.is_deleted(cref) {
                continue;
            }
            if self
                .arena
                .lits(cref)
                .iter()
                .any(|l| self.eliminated[l.var().index()])
            {
                self.delete_clause(cref);
            }
        }
        // Unit fixpoint by scanning; in practice only learned clauses can
        // still be unit here (problem clauses were cleaned through the
        // occurrence lists).
        let all_refs = |s: &Solver| -> Vec<ClauseRef> {
            s.clauses
                .iter()
                .chain(s.learnts.iter())
                .copied()
                .filter(|&c| !s.arena.is_deleted(c))
                .collect()
        };
        loop {
            let mark = self.trail.len();
            for cref in all_refs(self) {
                let mut unit = None;
                let mut undef = 0;
                let mut satisfied = false;
                for k in 0..self.arena.len(cref) {
                    let l = self.arena.lit_at(cref, k);
                    match self.lit_lbool(l) {
                        LBool::True => {
                            satisfied = true;
                            break;
                        }
                        LBool::False => {}
                        LBool::Undef => {
                            undef += 1;
                            unit = Some(l);
                        }
                    }
                }
                if satisfied {
                    self.delete_clause(cref);
                    continue;
                }
                match undef {
                    0 => return false,
                    1 => {
                        self.enqueue(unit.unwrap(), REASON_NONE);
                        self.delete_clause(cref);
                    }
                    _ => {}
                }
            }
            if self.trail.len() == mark {
                break;
            }
        }
        for cref in all_refs(self) {
            let kept: Vec<Lit> = self
                .arena
                .lits(cref)
                .iter()
                .copied()
                .filter(|&l| self.lit_lbool(l) == LBool::Undef)
                .collect();
            debug_assert!(kept.len() >= 2);
            if kept.len() < self.arena.len(cref) {
                for (k, &l) in kept.iter().enumerate() {
                    self.arena.set_lit(cref, k, l);
                }
                self.arena.shrink(cref, kept.len());
                if !self.arena.is_learnt(cref) {
                    self.arena.recompute_sig(cref);
                }
            }
            self.watches[(!kept[0]).index()].push(Watch {
                cref,
                blocker: kept[1],
            });
            self.watches[(!kept[1]).index()].push(Watch {
                cref,
                blocker: kept[0],
            });
        }
        let arena = &self.arena;
        self.clauses.retain(|&c| !arena.is_deleted(c));
        self.learnts.retain(|&c| !arena.is_deleted(c));
        // The level-0 trail is final and some reasons may reference deleted
        // clauses; top-level facts need no reasons.
        for i in 0..self.trail.len() {
            let v = self.trail[i].var();
            self.reason[v.index()] = REASON_NONE;
        }
        self.qhead = self.trail.len();
        true
    }

    /// Bounded failed-literal probing over binary-clause variables with a
    /// rotating cursor.  Requires valid watches (runs after the rebuild).
    fn probe_failed_literals(&mut self) -> bool {
        let nv = self.num_vars();
        if nv == 0 {
            return true;
        }
        let mut in_binary = vec![false; nv];
        let mut any = false;
        for &c in &self.clauses {
            if !self.arena.is_deleted(c) && self.arena.len(c) == 2 {
                in_binary[self.arena.lit_at(c, 0).var().index()] = true;
                in_binary[self.arena.lit_at(c, 1).var().index()] = true;
                any = true;
            }
        }
        if !any {
            return true;
        }
        let mut probes = 0;
        let mut scanned = 0;
        while probes < MAX_PROBES && scanned < nv {
            let vi = (self.probe_cursor + scanned) % nv;
            scanned += 1;
            if !in_binary[vi] || self.eliminated[vi] || self.assigns[vi] != LBool::Undef {
                continue;
            }
            if self.interrupted() {
                break;
            }
            probes += 1;
            for sign in [false, true] {
                let l = Lit::new(Var(vi as u32), sign);
                if self.lit_lbool(l) != LBool::Undef {
                    break; // the first polarity's failure fixed the variable
                }
                self.trail_lim.push(self.trail.len());
                self.enqueue(l, REASON_NONE);
                let conflict = self.propagate().is_some();
                self.cancel_until(0);
                if conflict {
                    self.stats.failed_literals += 1;
                    match self.lit_lbool(!l) {
                        LBool::True => {}
                        LBool::False => return false,
                        LBool::Undef => {
                            self.enqueue(!l, REASON_NONE);
                            if self.propagate().is_some() {
                                return false;
                            }
                        }
                    }
                }
            }
        }
        self.probe_cursor = (self.probe_cursor + scanned) % nv;
        true
    }

    /// Reconstructs model values for eliminated variables by replaying the
    /// elimination stack in reverse: each pivot defaults to false and flips
    /// to true exactly when one of its saved clauses is otherwise
    /// unsatisfied.  Later-eliminated variables never appear in
    /// earlier-saved clauses (elimination removes every occurrence), so the
    /// reverse order reads only settled values.
    pub(crate) fn extend_model(&mut self) {
        if self.elim_stack.is_empty() {
            return;
        }
        let stack = std::mem::take(&mut self.elim_stack);
        for (pivot, saved) in stack.iter().rev() {
            let pv = pivot.var();
            let mut value = pivot.is_neg(); // falsifies the pivot literal
            for clause in saved {
                let sat = clause
                    .iter()
                    .any(|&l| l.var() != pv && self.lit_value(l) == Some(true));
                if !sat {
                    value = !pivot.is_neg();
                    break;
                }
            }
            self.assigns[pv.index()] = LBool::from_bool(value);
        }
        self.elim_stack = stack;
    }
}
