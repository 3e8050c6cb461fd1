//! The CEGIS loop (Fig. 13) with resource-budget descent.
//!
//! One incremental SMT instance holds the skeleton variables, the device's
//! structural constraints, and one simulation-equality constraint per
//! accumulated test case.  Budgets (total TCAM entries for single-table
//! devices, pipeline stages for pipelined ones) are *assumptions*, so the
//! same instance serves the whole minimization descent: each verified
//! candidate in the entry phase first loses every entry the verifier alone
//! shows it can do without, then tightens the budget to one entry below
//! what is left, and the loop re-enters synthesis; an UNSAT under the
//! tightened assumption proves the incumbent minimal over this skeleton.
//!
//! Verification is incremental too: a second persistent instance
//! ([`IncrementalVerifier`]) carries the spec-path formula and the symbolic
//! implementation for the whole run, and candidates are pinned onto its
//! free skeleton variables with assumptions — no per-candidate solver
//! construction.

use crate::bounds::{compute_bounds, Bounds};
use crate::encode::encode_impl;
use crate::reduce::reduce_spec;
use crate::skeleton::{self, build_shape, build_vars, ConcreteSkel, Shape};
use crate::specenc::{encode_spec_paths, mismatch_term};
use crate::{fuzz, post, OptConfig, SynthError, SynthOutput, SynthParams, SynthStats};
use ph_bits::{BitString, Rng};
use ph_hw::DeviceProfile;
use ph_ir::{analysis, NextState, ParseStatus, ParserSpec, StateId};
use ph_obs::Level;
use ph_sat::Interrupt;
use ph_smt::{Smt, SmtResult, Term};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

/// Which skeleton family to synthesize (Opt7.1 races both).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopMode {
    /// Loopy for loopy specs on loop-capable devices, loop-free otherwise.
    Auto,
    /// Force the loop-free (DAG) skeleton.
    LoopFree,
    /// Force the loop-aware skeleton (single-table devices only).
    Loopy,
}

/// Spec-level loop unrolling for devices that cannot revisit entries:
/// duplicates states per depth level up to `depth` and redirects back-edges
/// downward.  Equivalent on every input the bounded verification covers.
pub fn unroll_spec(spec: &ParserSpec, depth: usize) -> ParserSpec {
    let n = spec.states.len();
    let mut out = spec.clone();
    out.states = Vec::with_capacity(n * depth);
    // Level d state i lives at index d*n + i.
    for d in 0..depth {
        for (i, st) in spec.states.iter().enumerate() {
            let mut copy = st.clone();
            copy.name = format!("{}@{d}", st.name);
            let redirect = |nx: NextState| match nx {
                NextState::State(t) if d + 1 < depth => {
                    NextState::State(StateId((d + 1) * n + t.0))
                }
                NextState::State(_) => NextState::Reject, // depth exhausted
                other => other,
            };
            for tr in copy.transitions.iter_mut() {
                tr.next = redirect(tr.next);
            }
            copy.default = redirect(copy.default);
            let _ = i;
            out.states.push(copy);
        }
    }
    out.start = StateId(spec.start.0);
    prune(&out)
}

/// Drops unreachable states (the unrolled product is mostly unreachable).
fn prune(spec: &ParserSpec) -> ParserSpec {
    let reach = analysis::reachable_states(spec);
    let mut map = vec![usize::MAX; spec.states.len()];
    for (new, s) in reach.iter().enumerate() {
        map[s.0] = new;
    }
    let remap = |n: NextState| match n {
        NextState::State(s) => NextState::State(StateId(map[s.0])),
        other => other,
    };
    let states = reach
        .iter()
        .map(|&s| {
            let mut st = spec.state(s).clone();
            for tr in st.transitions.iter_mut() {
                tr.next = remap(tr.next);
            }
            st.default = remap(st.default);
            st
        })
        .collect();
    ParserSpec {
        fields: spec.fields.clone(),
        states,
        start: StateId(map[spec.start.0]),
    }
}

/// Runs one full synthesis (no Opt7 racing).  `interrupt` cancels the run
/// cooperatively (a losing race branch).  `params.timeout` becomes the
/// deadline of the solvers' [`Interrupt`], polled wherever the flag is.
pub fn synthesize_one(
    spec: &ParserSpec,
    device: &DeviceProfile,
    opts: OptConfig,
    params: &SynthParams,
    mode: LoopMode,
    interrupt: Option<Arc<AtomicBool>>,
) -> Result<SynthOutput, SynthError> {
    let _tracer_guard = params
        .tracer
        .as_ref()
        .map(|t| ph_obs::set_thread_tracer(t.clone()));
    let tracer = ph_obs::current();
    let _run_span = tracer.span("synth.run");

    let t0 = Instant::now();
    let interrupt = Interrupt {
        flag: interrupt.unwrap_or_default(),
        deadline: params.timeout.and_then(|d| t0.checked_add(d)),
    };

    // Decide the skeleton family and possibly unroll the spec.
    let spec_loopy = !analysis::is_loop_free(spec);
    let loopy = match mode {
        LoopMode::LoopFree => false,
        LoopMode::Loopy => {
            if !device.allows_loops() {
                return Err(SynthError::Unsupported(
                    "loop-aware skeletons need a single-table device".into(),
                ));
            }
            true
        }
        LoopMode::Auto => spec_loopy && device.allows_loops(),
    };
    let working_spec = if spec_loopy && !loopy {
        // Loop-free compilation of a loopy spec: unroll to the configured
        // header-instance budget first (what ParserHawk does internally for
        // the IPU; a pipelined device can only ever support a bounded
        // stack, so correctness is judged against the unrolled spec).
        unroll_spec(spec, params.max_loop_iters)
    } else {
        spec.clone()
    };

    tracer.msg_with(Level::Debug, || {
        format!(
            "synthesis starts: {} spec states, loopy={loopy}",
            working_spec.states.len()
        )
    });
    let reduced = {
        let _s = tracer.span("synth.reduce");
        reduce_spec(&working_spec, opts).map_err(SynthError::Unsupported)?
    };
    let bounds =
        compute_bounds(&reduced.spec, params.max_loop_iters).map_err(SynthError::Unsupported)?;
    let shape = {
        let _s = tracer.span("synth.skeleton");
        build_shape(&reduced, device, opts, loopy, params.spare_states)
            .map_err(SynthError::Unsupported)?
    };

    run_cegis(
        &working_spec,
        &reduced.spec,
        &shape,
        device,
        params,
        bounds,
        interrupt,
        t0,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_cegis(
    orig_spec: &ParserSpec,
    red_spec: &ParserSpec,
    shape: &Shape,
    device: &DeviceProfile,
    params: &SynthParams,
    bounds: Bounds,
    interrupt: Interrupt,
    t0: Instant,
) -> Result<SynthOutput, SynthError> {
    let tracer = ph_obs::current();
    let mut stats = SynthStats::default();
    let mut rng = Rng::seed_from_u64(params.seed);
    let l = bounds.input_bits.max(1);
    let k_impl = shape_k(shape, &bounds);
    let k_spec = bounds.spec_iters + 1;

    let mut smt = Smt::new();
    smt.set_interrupt(Some(interrupt.clone()));
    let vars = build_vars(&mut smt, shape, device);
    stats.search_space_bits = vars.search_space_bits;
    tracer.gauge("cegis.search_space_bits", vars.search_space_bits as u64);

    // Persistent verification engine: the spec-path formula and the symbolic
    // implementation are encoded exactly once; every candidate (and every
    // entry-deletion and mask-shrink trial) is checked under assumptions
    // against this one instance.
    let tv = Instant::now();
    let mut verifier = IncrementalVerifier::new(shape, red_spec, l, k_impl, k_spec, &interrupt)?;
    stats.verify_solver_builds += 1;
    stats.verify_time += tv.elapsed();

    // Initial test cases: all-zeros plus two random inputs.
    let add_test = |smt: &mut Smt, input: &BitString, stats: &mut SynthStats| {
        add_test_case(smt, shape, &vars.terms, red_spec, input, k_impl, k_spec);
        stats.test_cases += 1;
    };

    let mut initial = vec![BitString::zeros(l)];
    for _ in 0..2 {
        let mut b = BitString::zeros(l);
        for i in 0..l {
            b.set(i, rng.gen_bool(0.5));
        }
        initial.push(b);
    }
    for t in &initial {
        add_test(&mut smt, t, &mut stats);
    }

    // Budget descent: single-table devices minimize total TCAM entries;
    // pipelined devices minimize stages first, then entries with the stage
    // count pinned (the Table 3 quality metrics).
    let single_table = device.arch == ph_hw::Arch::SingleTable;
    #[derive(PartialEq)]
    enum MinPhase {
        Stages,
        Entries,
    }
    let mut phase = if single_table {
        MinPhase::Entries
    } else {
        MinPhase::Stages
    };
    let mut stage_cap: Option<u64> = None;
    let mut entry_cap: Option<u64> = None;
    let mut best: Option<ConcreteSkel> = None;

    // The descent + shrink proper (setup above is accounted under
    // `synth.run` / `verify.encode`).  The `cegis.synth` / `cegis.verify` /
    // `cegis.shrink` child spans are arranged to cover this span's wall
    // time to within ~1%: everything else inside it is loop control.
    let run_span = tracer.span("cegis.run");

    'outer: loop {
        stats.budget_levels += 1;
        tracer.msg_with(Level::Debug, || {
            format!(
                "budget level {} (stage cap {stage_cap:?}, entry cap {entry_cap:?})",
                stats.budget_levels
            )
        });
        let assumptions: Vec<Term> = {
            let _s = tracer.span("cegis.assume");
            let mut assumptions = Vec::new();
            if let Some(b) = stage_cap {
                let stages = vars.stage.as_ref().expect("pipelined device has stages");
                let stb = smt.width(stages[0]);
                let bc = smt.const_u64(b, stb);
                for &s in stages.iter() {
                    assumptions.push(smt.ule(s, bc));
                }
            }
            if let Some(b) = entry_cap {
                let bc = smt.const_u64(b, vars.count_bits);
                assumptions.push(smt.ule(vars.active_count, bc));
            }
            assumptions
        };

        // Inner CEGIS at this budget.
        for _iter in 0..params.max_cegis_iters {
            if interrupt.is_set() {
                tracer.msg(Level::Debug, "interrupted mid-descent");
                stats.wall = t0.elapsed();
                stats.synth_sat = smt.solver_stats();
                stats.verify_sat = verifier.solver_stats();
                return finish_or_timeout(best, shape, orig_spec, device, params, stats);
            }
            stats.cegis_iterations += 1;
            let _iter_span = tracer.span("cegis.iter");
            let ts = Instant::now();
            // The synth phase covers model extraction, so the span (and
            // synth_time) is the full synthesis-side cost.
            let (synth_result, candidate) = {
                let _s = tracer.span("cegis.synth");
                let r = smt.check_assuming(&assumptions);
                let candidate =
                    (r == SmtResult::Sat).then(|| skeleton::extract_model(&mut smt, shape, &vars));
                (r, candidate)
            };
            let dt = ts.elapsed();
            stats.synth_time += dt;
            stats.hists.synth_query_ns.record(dt.as_nanos() as u64);
            let candidate = match synth_result {
                SmtResult::Unsat => {
                    let Some(b) = best.take() else {
                        return Err(SynthError::Infeasible(
                            "no implementation within the device's resources for this skeleton"
                                .into(),
                        ));
                    };
                    if phase == MinPhase::Entries {
                        best = Some(b);
                        break 'outer; // entry descent complete
                    }
                    // Stage count is minimal; pin it and minimize entries
                    // next, starting below the shrunk incumbent.
                    let b = delete_entries(&mut verifier, b, &interrupt, &mut stats);
                    phase = MinPhase::Entries;
                    stage_cap = Some(skeleton::stages_used(&b) as u64 - 1);
                    entry_cap = Some((skeleton::entry_count(&b) as u64).saturating_sub(1));
                    best = Some(b);
                    continue 'outer;
                }
                SmtResult::Unknown => {
                    break 'outer; // interrupted / budget exhausted
                }
                SmtResult::Sat => candidate.expect("a Sat check yields a model"),
            };

            // Verification phase: one incremental check, plus encoding the
            // counterexample as a new test case — the span (and verify_time)
            // is the full verification-side cost.
            let tv = Instant::now();
            let vspan = tracer.span("cegis.verify");
            let before = verifier.solver_stats();
            let verdict = verifier.verify(&candidate);
            let query = tv.elapsed();
            // Per-query solver effort: the delta this one check cost.
            let delta = verifier.solver_stats().delta_since(&before);
            stats.verify_checks += 1;
            stats.hists.verify_query_ns.record(query.as_nanos() as u64);
            stats.hists.verify_conflicts.record(delta.conflicts);
            stats.max_verify_conflicts = stats.max_verify_conflicts.max(delta.conflicts);
            delta.emit(&tracer, "verify");
            tracer.record("verify.conflicts", delta.conflicts);
            if let Verdict::Counterexample(cex) = &verdict {
                stats.counterexamples += 1;
                tracer.count("cegis.cex", 1);
                add_test(&mut smt, cex, &mut stats);
            }
            drop(vspan);
            stats.verify_time += tv.elapsed();

            // A verified candidate tightens the budget; an Unknown aborts;
            // otherwise the loop re-enters synthesis with the new test.
            match verdict {
                Verdict::Verified => {
                    tracer.count("cegis.verified", 1);
                }
                Verdict::Unknown => break 'outer,
                Verdict::Counterexample(_) => continue,
            }
            let stages = skeleton::stages_used(&candidate) as u64;
            if phase == MinPhase::Stages && stages > 1 {
                best = Some(candidate);
                stage_cap = Some(stages - 2);
                continue 'outer;
            }
            if phase == MinPhase::Stages {
                // One stage is minimal: go straight to the entry phase.
                phase = MinPhase::Entries;
                stage_cap = Some(0);
            }
            // The entry descent restarts below the candidate's shrunk size:
            // entries the verifier alone can delete never cost a synthesis
            // query to descend past.
            let b = delete_entries(&mut verifier, candidate, &interrupt, &mut stats);
            let used = skeleton::entry_count(&b) as u64;
            best = Some(b);
            if used == 0 {
                break 'outer;
            }
            entry_cap = Some(used - 1);
            continue 'outer;
        }
        // CEGIS iteration cap hit at this budget: settle for what we have.
        break;
    }

    // Mask shrinking: clearing an entry's mask turns it into a catch-all,
    // which lets the post-synthesis chain merger absorb trivial states.
    // Each proposal is re-verified symbolically, so the pass is sound.
    if let Some(conc) = best.take() {
        best = Some(shrink_masks(
            shape,
            &mut verifier,
            conc,
            &interrupt,
            &mut stats,
        ));
    }
    drop(run_span);

    stats.wall = t0.elapsed();
    stats.synth_sat = smt.solver_stats();
    stats.verify_sat = verifier.solver_stats();
    tracer.msg_with(Level::Info, || {
        format!(
            "cegis done: {} iterations, {} test cases, {} budget levels in {:.3}s",
            stats.cegis_iterations,
            stats.test_cases,
            stats.budget_levels,
            stats.wall.as_secs_f64()
        )
    });
    finish_or_timeout(best, shape, orig_spec, device, params, stats)
}

/// Asserts that the implementation over `terms` parses `input` exactly as
/// the spec does: same acceptance class, same extracted fields.
fn add_test_case(
    smt: &mut Smt,
    shape: &Shape,
    terms: &skeleton::SkelTerms,
    red_spec: &ParserSpec,
    input: &BitString,
    k_impl: usize,
    k_spec: usize,
) {
    let expect = ph_ir::simulate(red_spec, input, k_spec + 2);
    debug_assert!(expect.status != ParseStatus::IterationBudget);
    let it = smt.const_bits(input.clone());
    let out = encode_impl(smt, shape, terms, it, k_impl);
    let want = smt.const_u64(
        match expect.status {
            ParseStatus::Accept => shape.accept_code() as u64,
            ParseStatus::Reject => shape.reject_code() as u64,
            _ => shape.ooi_code() as u64,
        },
        shape.state_bits(),
    );
    let c = smt.eq(out.status, want);
    smt.assert(c);
    for (f, w) in shape.field_widths.iter().enumerate() {
        match expect.dict.get(ph_ir::FieldId(f)) {
            Some(v) => {
                smt.assert(out.defined[f]);
                debug_assert_eq!(v.len(), (*w).max(1));
                let vc = smt.const_bits(v.clone());
                let c = smt.eq(out.values[f], vc);
                smt.assert(c);
            }
            None => {
                let nd = smt.not(out.defined[f]);
                smt.assert(nd);
            }
        }
    }
}

/// Outcome of one symbolic verification.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No input distinguishes the candidate from the spec.
    Verified,
    /// A witness input on which candidate and spec disagree.
    Counterexample(BitString),
    /// Interrupted or out of budget.
    Unknown,
}

/// Persistent verification engine.
///
/// The spec-path mismatch formula (φ_spec) and the symbolic implementation
/// are encoded once over *free* skeleton variables; each candidate is
/// checked by pinning those variables with equality assumptions
/// ([`Smt::check_assuming`]).  The CDCL solver keeps its clause database,
/// variable activities and learned lemmas across queries, and the
/// bit-blaster's term cache means repeated pins (identical entries across
/// candidates and shrink trials) cost nothing to re-encode.  This
/// drops verification solver constructions from O(candidates + entries) to
/// exactly one per synthesis run.
pub struct IncrementalVerifier<'a> {
    shape: &'a Shape,
    smt: Smt,
    input: Term,
    skel: skeleton::SkelTerms,
}

impl<'a> IncrementalVerifier<'a> {
    /// Encodes the verification formula once.
    ///
    /// # Errors
    ///
    /// Propagates unsupported-spec errors from the path enumeration.
    pub fn new(
        shape: &'a Shape,
        red_spec: &ParserSpec,
        l: usize,
        k_impl: usize,
        k_spec: usize,
        interrupt: &Interrupt,
    ) -> Result<Self, SynthError> {
        let tracer = ph_obs::current();
        let _s = tracer.span("verify.encode");
        let mut smt = Smt::new();
        smt.set_interrupt(Some(interrupt.clone()));
        let input = smt.var("I", l as u32);
        // Counterexamples are read off `input` after every SAT verdict, so
        // its bits must survive CNF simplification.  Blasting any term
        // freezes its cached literals; forcing it here (rather than relying
        // on `encode_impl` reaching it) makes the contract explicit.
        smt.freeze_term(input);
        let skel = skeleton::build_verifier_terms(&mut smt, shape);
        let out = encode_impl(&mut smt, shape, &skel, input, k_impl);
        let paths = encode_spec_paths(&mut smt, red_spec, input, k_spec + 2, 1 << 16)
            .map_err(SynthError::Unsupported)?;
        let bad = mismatch_term(
            &mut smt,
            &paths,
            input,
            out.status,
            &out.defined,
            &out.values,
            shape.accept_code() as u64,
            shape.reject_code() as u64,
            shape.ooi_code() as u64,
        );
        smt.assert(bad);
        tracer.gauge("verify.encode.sat_vars", smt.num_sat_vars() as u64);
        tracer.gauge("verify.encode.terms", smt.num_terms() as u64);
        Ok(IncrementalVerifier {
            shape,
            smt,
            input,
            skel,
        })
    }

    /// The persistent verification solver's cumulative search statistics;
    /// snapshot around [`IncrementalVerifier::verify`] and use
    /// [`ph_sat::SolverStats::delta_since`] for the per-query cost.
    pub fn solver_stats(&self) -> ph_sat::SolverStats {
        self.smt.solver_stats()
    }

    /// Checks one candidate: UNSAT under the pin assumptions means no input
    /// distinguishes it from the spec.
    pub fn verify(&mut self, candidate: &ConcreteSkel) -> Verdict {
        let pins = skeleton::pin_candidate(&mut self.smt, self.shape, &self.skel, candidate);
        match self.smt.check_assuming(&pins) {
            SmtResult::Unsat => Verdict::Verified,
            SmtResult::Sat => Verdict::Counterexample(self.smt.model_value(self.input)),
            SmtResult::Unknown => Verdict::Unknown,
        }
    }
}

/// Checks a concrete skeleton against every spec path symbolically using a
/// fresh solver with the skeleton baked in as constants — the
/// pre-incremental path, kept as the differential-testing oracle for
/// [`IncrementalVerifier`] and for benchmarking the rebuild cost.
pub fn verify_candidate_fresh(
    shape: &Shape,
    red_spec: &ParserSpec,
    candidate: &ConcreteSkel,
    l: usize,
    k_impl: usize,
    k_spec: usize,
    interrupt: &Interrupt,
) -> Result<Verdict, SynthError> {
    let mut vsmt = Smt::new();
    vsmt.set_interrupt(Some(interrupt.clone()));
    // This path is the differential-testing oracle for the incremental
    // (and simplifying) engine, so it deliberately runs the plain solver.
    vsmt.set_simplify(false);
    let input = vsmt.var("I", l as u32);
    let terms = skeleton::concrete_terms(&mut vsmt, shape, candidate);
    let out = encode_impl(&mut vsmt, shape, &terms, input, k_impl);
    let paths = encode_spec_paths(&mut vsmt, red_spec, input, k_spec + 2, 1 << 16)
        .map_err(SynthError::Unsupported)?;
    let bad = mismatch_term(
        &mut vsmt,
        &paths,
        input,
        out.status,
        &out.defined,
        &out.values,
        shape.accept_code() as u64,
        shape.reject_code() as u64,
        shape.ooi_code() as u64,
    );
    vsmt.assert(bad);
    Ok(match vsmt.check() {
        SmtResult::Unsat => Verdict::Verified,
        SmtResult::Sat => Verdict::Counterexample(vsmt.model_value(input)),
        SmtResult::Unknown => Verdict::Unknown,
    })
}

/// Deletes every entry the program can do without, keeping each deletion
/// only when the program still verifies.  Every trial is one incremental
/// assumption check against the persistent verifier, accounted (span,
/// stats, `shrink.*` deltas) like a [`shrink_masks`] trial.
///
/// A deletion can never break a structural constraint of
/// [`build_vars`], so the verdict is the only check needed: every entry
/// constraint is guarded by the entry's `active` bit, the entries left in
/// a state still form an active prefix, and the total and per-stage entry
/// limits only loosen.  Minimality is still proved by the descent's final
/// UNSAT one entry below the incumbent.
fn delete_entries(
    verifier: &mut IncrementalVerifier<'_>,
    mut conc: ConcreteSkel,
    interrupt: &Interrupt,
    stats: &mut SynthStats,
) -> ConcreteSkel {
    let _span = ph_obs::current().span("cegis.shrink");
    for s in 0..conc.entries.len() {
        // Last entry first, so a kept deletion never shifts an untried one.
        for j in (0..conc.entries[s].len()).rev() {
            if interrupt.is_set() {
                return conc;
            }
            let mut trial = conc.clone();
            trial.entries[s].remove(j);
            if shrink_trial(verifier, &trial, stats) {
                conc = trial;
            }
        }
    }
    conc
}

/// Tries to clear each entry's mask (making it a catch-all), keeping each
/// change only when the program still verifies.  Every trial is one
/// incremental assumption check against the persistent verifier.
fn shrink_masks(
    shape: &Shape,
    verifier: &mut IncrementalVerifier<'_>,
    mut conc: ConcreteSkel,
    interrupt: &Interrupt,
    stats: &mut SynthStats,
) -> ConcreteSkel {
    let _span = ph_obs::current().span("cegis.shrink");
    for s in 0..conc.entries.len() {
        for j in 0..conc.entries[s].len() {
            if conc.entries[s][j].mask.count_ones() == 0 {
                continue;
            }
            if interrupt.is_set() {
                return conc;
            }
            let mut trial = conc.clone();
            trial.entries[s][j].mask = BitString::zeros(shape.canon_width);
            trial.entries[s][j].value = BitString::zeros(shape.canon_width);
            if shrink_trial(verifier, &trial, stats) {
                conc = trial;
            }
        }
    }
    conc
}

/// One shrink trial: verifies `trial` and records the query under the
/// shrink statistics.  True when it verified.
fn shrink_trial(
    verifier: &mut IncrementalVerifier<'_>,
    trial: &ConcreteSkel,
    stats: &mut SynthStats,
) -> bool {
    let tracer = ph_obs::current();
    let tv = Instant::now();
    let sat_before = verifier.solver_stats();
    let verdict = verifier.verify(trial);
    stats.verify_checks += 1;
    stats.shrink_trials += 1;
    let dt = tv.elapsed();
    stats.shrink_time += dt;
    stats.hists.shrink_query_ns.record(dt.as_nanos() as u64);
    tracer.count("shrink.trials", 1);
    let delta = verifier.solver_stats().delta_since(&sat_before);
    delta.emit(&tracer, "shrink");
    let kept = verdict == Verdict::Verified;
    if kept {
        stats.shrink_accepted += 1;
        tracer.count("shrink.accepted", 1);
    }
    kept
}

/// Unrolling depth for the implementation machine.
pub fn shape_k(shape: &Shape, bounds: &Bounds) -> usize {
    if shape.loopy {
        // One slot visit per extraction run: spec visits x runs-per-visit,
        // plus the entry state and the final transition.
        (bounds.spec_iters * shape.max_runs_per_state.max(1) + 2).min(bounds.impl_iters.max(3))
    } else {
        // A DAG machine visits each state at most once.
        shape.state_count() + 1
    }
}

fn finish_or_timeout(
    best: Option<ConcreteSkel>,
    shape: &Shape,
    orig_spec: &ParserSpec,
    device: &DeviceProfile,
    params: &SynthParams,
    stats: SynthStats,
) -> Result<SynthOutput, SynthError> {
    let Some(conc) = best else {
        return Err(SynthError::Timeout(Box::new(stats)));
    };
    let mut program = skeleton::to_program(shape, &conc, device);
    post::optimize(&mut program, device, &orig_spec.fields);
    let tracer = ph_obs::current();
    {
        let _span = tracer.span("synth.validate");
        fuzz::check_e2e(orig_spec, &program, params.seed, fuzz::GATE_PACKETS)
            .map_err(|e| SynthError::ValidationFailed(e.to_string()))?;
    }
    let violations = ph_hw::check_program(&program, &orig_spec.fields);
    if !violations.is_empty() {
        return Err(SynthError::Infeasible(
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; "),
        ));
    }
    Ok(SynthOutput { program, stats })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A spec's skeleton on one device plus the first candidate the CEGIS
    /// loop verifies with no budget — typically one with entries to spare.
    struct Fixture {
        red_spec: ParserSpec,
        fields: Vec<ph_ir::Field>,
        shape: Shape,
        l: usize,
        k_impl: usize,
        k_spec: usize,
        candidate: ConcreteSkel,
    }

    impl Fixture {
        fn new(spec: &ParserSpec, device: &DeviceProfile) -> Fixture {
            let (opts, params) = (OptConfig::all(), SynthParams::default());
            let spec_loopy = !analysis::is_loop_free(spec);
            let loopy = spec_loopy && device.allows_loops();
            let working = if spec_loopy && !loopy {
                unroll_spec(spec, params.max_loop_iters)
            } else {
                spec.clone()
            };
            let red = reduce_spec(&working, opts).unwrap();
            let bounds = compute_bounds(&red.spec, params.max_loop_iters).unwrap();
            let shape = build_shape(&red, device, opts, loopy, params.spare_states).unwrap();
            let l = bounds.input_bits.max(1);
            let (k_impl, k_spec) = (shape_k(&shape, &bounds), bounds.spec_iters + 1);
            let mut smt = Smt::new();
            let vars = build_vars(&mut smt, &shape, device);
            let interrupt = Interrupt::default();
            let mut verifier =
                IncrementalVerifier::new(&shape, &red.spec, l, k_impl, k_spec, &interrupt).unwrap();
            let zeros = BitString::zeros(l);
            add_test_case(
                &mut smt,
                &shape,
                &vars.terms,
                &red.spec,
                &zeros,
                k_impl,
                k_spec,
            );
            let candidate = loop {
                assert_eq!(smt.check(), SmtResult::Sat, "the skeleton is feasible");
                let candidate = skeleton::extract_model(&mut smt, &shape, &vars);
                match verifier.verify(&candidate) {
                    Verdict::Verified => break candidate,
                    Verdict::Counterexample(cex) => add_test_case(
                        &mut smt,
                        &shape,
                        &vars.terms,
                        &red.spec,
                        &cex,
                        k_impl,
                        k_spec,
                    ),
                    Verdict::Unknown => panic!("uninterrupted verification is decided"),
                }
            };
            Fixture {
                red_spec: red.spec,
                fields: working.fields,
                shape,
                l,
                k_impl,
                k_spec,
                candidate,
            }
        }

        fn verifier(&self) -> IncrementalVerifier<'_> {
            IncrementalVerifier::new(
                &self.shape,
                &self.red_spec,
                self.l,
                self.k_impl,
                self.k_spec,
                &Interrupt::default(),
            )
            .unwrap()
        }

        fn verify_fresh(&self, conc: &ConcreteSkel) -> Verdict {
            verify_candidate_fresh(
                &self.shape,
                &self.red_spec,
                conc,
                self.l,
                self.k_impl,
                self.k_spec,
                &Interrupt::default(),
            )
            .unwrap()
        }
    }

    fn registry_spec(name: &str) -> ParserSpec {
        ph_benchmarks::registry()
            .into_iter()
            .find(|c| c.name == name)
            .unwrap_or_else(|| panic!("no registry case {name:?}"))
            .spec
    }

    /// Every single-entry deletion the incremental verifier accepts is
    /// confirmed by the fresh-solver oracle, and the pass's result verifies
    /// and breaks no device rule.
    #[test]
    fn accepted_deletions_agree_with_the_fresh_oracle() {
        let mut accepted = 0;
        for name in [
            "Parse Ethernet",
            "Parse icmp",
            "Multi-key (same pkt field)",
            "Dash V2",
            "Large tran key",
        ] {
            for device in [DeviceProfile::tofino(), DeviceProfile::ipu()] {
                let fx = Fixture::new(&registry_spec(name), &device);
                let mut verifier = fx.verifier();
                let conc = &fx.candidate;
                for s in 0..conc.entries.len() {
                    for j in 0..conc.entries[s].len() {
                        let mut trial = conc.clone();
                        trial.entries[s].remove(j);
                        let verdict = verifier.verify(&trial);
                        if verdict == Verdict::Verified {
                            accepted += 1;
                            assert_eq!(
                                fx.verify_fresh(&trial),
                                Verdict::Verified,
                                "{name} on {}: deleting entry {j} of state {s}",
                                device.name
                            );
                        }
                    }
                }
                let mut stats = SynthStats::default();
                let pruned = delete_entries(
                    &mut verifier,
                    conc.clone(),
                    &Interrupt::default(),
                    &mut stats,
                );
                assert!(skeleton::entry_count(&pruned) <= skeleton::entry_count(conc));
                assert_eq!(
                    fx.verify_fresh(&pruned),
                    Verdict::Verified,
                    "{name} on {}",
                    device.name
                );
                let program = skeleton::to_program(&fx.shape, &pruned, &device);
                let violations = ph_hw::check_program(&program, &fx.fields);
                assert!(
                    violations.is_empty(),
                    "{name} on {}: {violations:?}",
                    device.name
                );
            }
        }
        assert!(accepted > 0, "no case exercised an accepted deletion");
    }

    /// Parse icmp accepts entry deletions on both devices (the descent
    /// skips levels), yet ends at the committed Table 3 counts.
    #[test]
    fn pruned_descent_keeps_the_table3_counts() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/table3.json");
        let table = ph_obs::Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let rows = table.get("rows").and_then(ph_obs::Json::as_arr).unwrap();
        let row = rows
            .iter()
            .find(|r| r.get("name").and_then(ph_obs::Json::as_str) == Some("Parse icmp"))
            .expect("Parse icmp row");
        let spec = registry_spec("Parse icmp");
        for device in [DeviceProfile::tofino(), DeviceProfile::ipu()] {
            let want = row.get(&device.name).and_then(|d| d.get("opt")).unwrap();
            let count = |key: &str| want.get(key).and_then(ph_obs::Json::as_i64).unwrap() as usize;
            let out = crate::Synthesizer::new(device.clone(), OptConfig::all())
                .synthesize(&spec)
                .unwrap();
            assert_eq!(
                out.program.entry_count(),
                count("entries"),
                "{}",
                device.name
            );
            assert_eq!(
                out.program.stages_used(),
                count("stages"),
                "{}",
                device.name
            );
        }
    }

    /// A copy of an entry placed right after it is shadowed, so it never
    /// matches: the entry pass must delete it.
    #[test]
    fn a_shadowed_copy_is_deleted() {
        let device = DeviceProfile::tofino();
        let fx = Fixture::new(&registry_spec("Parse Ethernet"), &device);
        let e_per = fx.shape.entries_per_state;
        let s = (0..fx.candidate.entries.len())
            .find(|&s| (1..e_per).contains(&fx.candidate.entries[s].len()))
            .expect("a state with an entry and room for one more");
        let mut padded = fx.candidate.clone();
        let copy = padded.entries[s][0].clone();
        padded.entries[s].insert(1, copy);
        let mut verifier = fx.verifier();
        assert_eq!(verifier.verify(&padded), Verdict::Verified);
        let mut stats = SynthStats::default();
        let pruned = delete_entries(&mut verifier, padded, &Interrupt::default(), &mut stats);
        assert!(skeleton::entry_count(&pruned) <= skeleton::entry_count(&fx.candidate));
        assert!(stats.shrink_accepted >= 1);
        assert_eq!(stats.shrink_trials, stats.verify_checks);
    }
}
