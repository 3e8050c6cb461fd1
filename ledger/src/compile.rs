//! The `quick` and `hard` workloads: direct `Synthesizer::synthesize`
//! calls, one at a time, in passes over a fixed list of (case, device)
//! pairs.  Each pass visits the pairs in seeded order and compiles a fresh
//! alpha-variant of each, so a pair's median covers both run-to-run noise
//! and the variant's numbering.

use crate::check::check_output;
use crate::gen::{pass_jobs, resolve, Device};
use crate::heap;
use crate::layers::{self, Output};
use crate::stats::{compile_medians, end_to_end, Class, Op};
use crate::{median_setup, RunCfg, RunOutput};
use ph_core::{OptConfig, SynthParams, Synthesizer};
use std::time::{Duration, Instant};

const BOTH: &[Device] = &[Device::Tofino, Device::Ipu];
const TOFINO: &[Device] = &[Device::Tofino];

/// `quick`: sub-second compiles with at most about 2k conflicts, where the
/// fixed per-compile costs dominate.  38 pairs.  The loopy MPLS rows run on
/// Tofino only: their IPU forms time out.
pub const QUICK: &[(&str, &[Device])] = &[
    ("Parse Ethernet", BOTH),
    ("Parse Ethernet + R1", BOTH),
    ("Parse Ethernet - R3", BOTH),
    ("Parse Ethernet + R2", BOTH),
    ("Parse icmp", BOTH),
    ("Parse icmp + R5", BOTH),
    ("Parse icmp - R3", BOTH),
    ("Parse MPLS", TOFINO),
    ("Parse MPLS + R1", TOFINO),
    ("Large tran key", BOTH),
    ("Multi-key (same pkt field)", BOTH),
    ("Multi-key (same) - R5", BOTH),
    ("Multi-key (same) - R5 - R3", BOTH),
    ("Multi-keys (diff pkt fields)", BOTH),
    ("Multi-keys (diff) + R5", BOTH),
    ("Multi-keys (diff) - R5", BOTH),
    ("Pure Extraction states", BOTH),
    ("Pure Extraction + state merging", BOTH),
    ("Dash V2", BOTH),
    ("Dash V2 + R1 + R2", BOTH),
];

/// `hard`: 0.7–2.5 s compiles of 7k–9k synth conflicts, where SAT search
/// dominates and the hardness-gated paths (CNF simplification, the
/// portfolio, batched CEGIS) engage on a multi-core machine.  3 pairs, so
/// a run repeats each about seven times.
pub const HARD: &[(&str, &[Device])] =
    &[("Large tran key + R1 + R4", BOTH), ("Sai V1 + R2", TOFINO)];

/// Budget of one compile; a compile that needs longer counts as failed.
pub const COMPILE_TIMEOUT: Duration = Duration::from_secs(60);

/// Runs one compile workload.
pub fn run(rows: &[(&str, &[Device])], cfg: &RunCfg) -> RunOutput {
    let (setup_secs, mut pairs) = median_setup(|| {
        let pairs = resolve(&ph_benchmarks::registry(), rows);
        for job in pass_jobs(&pairs, cfg.seed, 0) {
            job.spec
                .validate()
                .expect("variants of registry specs validate");
        }
        pairs
    });
    if cfg.smoke {
        pairs.truncate(1);
    }

    let mut ops: Vec<Op> = Vec::new();
    let mut wrong: Vec<String> = Vec::new();
    let mut outputs: Vec<Option<Output>> = (0..pairs.len()).map(|_| None).collect();
    let (mut packets, mut fuzz_secs) = (0u64, 0.0f64);
    // A traced run alternates traced and untraced passes, so the tracing
    // overhead is measured inside one process.
    let min_passes = if cfg.tracer.is_some() { 2 } else { 1 };
    let t_start = Instant::now();
    let mut last_pass = Duration::ZERO;
    for pass in 0u64.. {
        // Whole passes only, so every pair has as many samples as the
        // others; the run ends at the pass boundary nearest the budget.
        if pass >= min_passes && t_start.elapsed() + last_pass / 2 > cfg.budget {
            break;
        }
        let pass_start = Instant::now();
        let tracer = cfg.tracer.as_ref().filter(|_| pass % 2 == 0);
        let _guard = tracer.map(|t| ph_obs::set_thread_tracer(t.clone()));
        for job in pass_jobs(&pairs, cfg.seed, pass) {
            let pair = &pairs[job.pair];
            let synth = Synthesizer::new(pair.device.profile(), OptConfig::all()).with_params(
                SynthParams {
                    timeout: Some(COMPILE_TIMEOUT),
                    tracer: tracer.cloned(),
                    ..Default::default()
                },
            );
            let mark = heap::Mark::start();
            let t0 = Instant::now();
            let result = {
                let _s = ph_obs::current().span("ledger.core.synthesize");
                synth.synthesize(&job.spec)
            };
            let secs = t0.elapsed().as_secs_f64();

            let mut op = Op {
                pair: job.pair,
                key: job.pair,
                secs,
                heap_mb: mark.peak_mb(),
                class: Class::Compile,
                ok: false,
                entries: 0,
                stages: 0,
                stats: None,
                traced: tracer.is_some(),
            };
            match result {
                Ok(out) => {
                    let checked = check_output(&job.spec, &out.program, pair.device, cfg.seed);
                    packets += checked.packets;
                    fuzz_secs += checked.fuzz_secs;
                    if let Some(why) = checked.wrong {
                        wrong.push(format!("{}: {why}", pair.label()));
                    }
                    op.ok = true;
                    op.entries = out.program.entry_count();
                    op.stages = out.program.stages_used();
                    if tracer.is_some() {
                        op.stats = Some(out.stats.clone());
                        outputs[job.pair] = Some(Output {
                            pair: job.pair,
                            spec: job.spec,
                            out,
                        });
                    }
                }
                Err(e) => eprintln!("ledger: {} failed: {e}", pair.label()),
            }
            ops.push(op);
        }
        last_pass = pass_start.elapsed();
    }

    let metrics = match &cfg.tracer {
        None => end_to_end(&pairs, &ops, setup_secs),
        Some(tracer) => {
            let _guard = ph_obs::set_thread_tracer(tracer.clone());
            let total = |traced: bool| -> f64 {
                compile_medians(&ops, |o| o.traced == traced, |o| o.secs)
                    .iter()
                    .sum()
            };
            layers::metrics(&layers::Inputs {
                pairs: &pairs,
                ops: &ops,
                outputs: outputs.into_iter().flatten().collect(),
                fuzz_packets: packets,
                fuzz_secs,
                svc: None,
                trace_overhead_pct: 100.0 * (total(true) / total(false).max(1e-9) - 1.0),
                seed: cfg.seed,
                scratch: &cfg.scratch,
            })
        }
    };
    RunOutput {
        pairs,
        ops,
        wrong,
        metrics,
    }
}
