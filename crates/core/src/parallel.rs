//! Opt7: parallel synthesis racing (§6.7).
//!
//! For loop-free specifications on single-table devices, a loop-aware and a
//! loop-free skeleton are raced on separate threads (Fig. 20).  The race is
//! first-win: the first branch to produce a verified result trips the other
//! branch's interrupt flag, and the interrupted loser returns its
//! best-so-far candidate (or a timeout) instead of running to completion —
//! mirroring the paper's "solve sub-problems on a server pool, halt as soon
//! as one yields a valid outcome" strategy scaled to one machine with
//! `std::thread::scope`.  When both branches end up with results (the loser
//! may already have had one when interrupted), the better one (fewer
//! entries, then fewer states) is kept; on a tie, the first finisher's,
//! because the loser's result is only a best-so-far taken before mask
//! shrinking.
//!
//! Each branch's flag and its wall-clock deadline travel together in one
//! [`ph_sat::Interrupt`] and are polled at the same points (every solver
//! conflict, each CEGIS iteration and shrink trial), so no timer thread is
//! spawned and a winner returns as soon as it verifies.

use crate::cegis::{synthesize_one, LoopMode};
use crate::{OptConfig, SynthError, SynthOutput, SynthParams};
use ph_hw::DeviceProfile;
use ph_ir::{analysis, ParserSpec};
use ph_obs::Level;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::Arc;

/// Synthesizes with Opt7 racing enabled.
pub fn synthesize_racing(
    spec: &ParserSpec,
    device: &DeviceProfile,
    opts: OptConfig,
    params: &SynthParams,
) -> Result<SynthOutput, SynthError> {
    let spec_loopy = !analysis::is_loop_free(spec);

    // Racing is useful when both skeleton families apply: single-table
    // device and a loop-free spec (Fig. 20's setting).  Otherwise there is
    // exactly one sensible family.
    if !device.allows_loops() {
        return synthesize_one(spec, device, opts, params, LoopMode::LoopFree, None);
    }
    if spec_loopy {
        return synthesize_one(spec, device, opts, params, LoopMode::Loopy, None);
    }
    // The paper's server pool assigns one core per sub-problem; on a
    // single-core machine racing only multiplies work, so fall back to the
    // loop-free skeleton (the natural fit for a loop-free spec).  This is
    // the engine's only core-count decision: each branch runs the
    // sequential CEGIS loop on one thread.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores < 2 {
        return synthesize_one(spec, device, opts, params, LoopMode::LoopFree, None);
    }

    const FREE: u8 = 1;
    const LOOPY: u8 = 2;
    let flag_free = Arc::new(AtomicBool::new(false));
    let flag_loopy = Arc::new(AtomicBool::new(false));
    // The branch that verified a result first (0 while neither has).
    let first = AtomicU8::new(0);

    // The race tracer: the run-scoped one when set, else the ambient one.
    // Each branch derives a tagged stream from it, so one shared sink keeps
    // the winner/loser breakdown distinguishable.
    let base_tracer = params.tracer.clone().unwrap_or_else(ph_obs::current);
    let race_span = base_tracer.span("race.run");

    // Run one branch per thread; as soon as a branch verifies a result it
    // trips the other branch's interrupt flag.  The interrupted branch
    // notices at its next solver conflict / loop check and returns its own
    // best-so-far (possibly a timeout), so both joins stay cheap.
    let race = |mode: LoopMode,
                id: u8,
                mine: Arc<AtomicBool>,
                other: Arc<AtomicBool>,
                branch: &'static str| {
        let branch_tracer = base_tracer.with_branch(branch);
        let first = &first;
        move || {
            // Install the branch stream for this worker thread; everything
            // under synthesize_one (cegis, smt) inherits it.
            let mut branch_params = params.clone();
            branch_params.tracer = Some(branch_tracer.clone());
            let _g = ph_obs::set_thread_tracer(branch_tracer.clone());
            let r = synthesize_one(spec, device, opts, &branch_params, mode, Some(mine));
            // Claim the win before stopping the other branch, so the loser
            // can never claim it too.
            if r.is_ok()
                && first
                    .compare_exchange(0, id, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                other.store(true, Ordering::Relaxed);
                branch_tracer.count("race.first_win", 1);
                branch_tracer.msg_with(Level::Info, || format!("race: {branch} finished first"));
            }
            r
        }
    };
    let (free, loopy) = std::thread::scope(|scope| {
        let h_free = scope.spawn(race(
            LoopMode::LoopFree,
            FREE,
            flag_free.clone(),
            flag_loopy.clone(),
            "loop-free",
        ));
        let h_loopy = scope.spawn(race(
            LoopMode::Loopy,
            LOOPY,
            flag_loopy.clone(),
            flag_free.clone(),
            "loopy",
        ));
        let free = h_free.join().expect("loop-free worker panicked");
        let loopy = h_loopy.join().expect("loopy worker panicked");
        (free, loopy)
    });
    drop(race_span);

    let report = |winner: &'static str, out: &SynthOutput| {
        base_tracer.count(
            if winner == "loop-free" {
                "race.win.loop_free"
            } else {
                "race.win.loopy"
            },
            1,
        );
        base_tracer.msg_with(Level::Info, || {
            format!(
                "race: {winner} skeleton wins with {} entries in {:.3}s",
                out.program.entry_count(),
                out.stats.wall.as_secs_f64()
            )
        });
    };
    match (free, loopy) {
        (Ok(a), Ok(b)) => {
            // Prefer fewer entries, then fewer states, then the first
            // finisher: the other branch was interrupted mid-descent.
            let (ua, ub) = (a.program.usage(), b.program.usage());
            let (ka, kb) = ((ua.tcam_entries, ua.states), (ub.tcam_entries, ub.states));
            if kb < ka || (kb == ka && first.load(Ordering::Acquire) == LOOPY) {
                report("loopy", &b);
                Ok(b)
            } else {
                report("loop-free", &a);
                Ok(a)
            }
        }
        (Ok(a), Err(_)) => {
            report("loop-free", &a);
            Ok(a)
        }
        (Err(_), Ok(b)) => {
            report("loopy", &b);
            Ok(b)
        }
        // Both failed: a Timeout (likely just the interrupted loser) is the
        // least informative error, so prefer reporting the other kind.
        (Err(a), Err(b)) => {
            base_tracer.msg(Level::Warn, "race: both branches failed");
            Err(match (&a, &b) {
                (SynthError::Timeout(_), SynthError::Timeout(_)) => a,
                (SynthError::Timeout(_), _) => b,
                _ => a,
            })
        }
    }
}
