//! Measures the tracing layer's overhead on a real synthesis run and fails
//! if an *enabled* tracer (no-op sink, so pure instrumentation cost) slows
//! synthesis down by more than the budget.
//!
//! ```text
//! cargo run -p ph-bench --release --bin obs_overhead
//! ```
//!
//! Method: the Fig. 7 spec is synthesized repeatedly in batches, once with
//! tracing fully disabled (the `PH_TRACE`-unset default: a single `Option`
//! branch per call site) and once with an enabled tracer writing to
//! [`ph_obs::NoopSink`] (events are constructed and dispatched, then
//! discarded).  Disabled and enabled samples alternate so clock drift and
//! thermal effects hit both sides equally; the medians are compared.
//!
//! Each side takes 15 samples of 20 runs.  `PH_OBS_MAX_OVERHEAD_PCT`
//! (default 2.0) is the budget; the run exits non-zero above it.  Results
//! are recorded in EXPERIMENTS.md.

use ph_bench::Config;
use ph_core::{OptConfig, SynthParams, Synthesizer};
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::{NoopSink, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Samples per side.
const SAMPLES: usize = 15;
/// Synthesis runs per sample.
const BATCH: usize = 20;

/// The Fig. 7 two-state spec — small enough to synthesize in milliseconds,
/// real enough to exercise every instrumented phase.
fn fig7_spec() -> ParserSpec {
    ph_p4f::parse_parser(
        r#"
        header h_t { f0 : 4; f1 : 4; }
        parser {
            state start {
                extract(h_t.f0);
                transition select(h_t.f0[0:1]) {
                    0b0 : s1;
                    default : accept;
                }
            }
            state s1 { extract(h_t.f1); transition accept; }
        }
        "#,
    )
    .unwrap()
}

/// One sample: [`BATCH`] full synthesis runs with the given tracer.
fn sample(spec: &ParserSpec, tracer: &Tracer) -> Duration {
    let t0 = Instant::now();
    for _ in 0..BATCH {
        let out = Synthesizer::new(
            DeviceProfile::tofino(),
            OptConfig {
                opt7_parallel: false,
                ..OptConfig::all()
            },
        )
        .with_params(SynthParams {
            timeout: Some(Duration::from_secs(60)),
            tracer: Some(tracer.clone()),
            ..Default::default()
        })
        .synthesize(spec)
        .expect("fig7 synthesizes");
        std::hint::black_box(out.program.entry_count());
    }
    t0.elapsed()
}

fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    xs[xs.len() / 2]
}

fn main() {
    let max_pct = Config::from_env().obs_max_overhead_pct;

    let spec = fig7_spec();
    let disabled = Tracer::disabled();
    let noop = Tracer::new(Arc::new(NoopSink));

    // Warm-up: fault in code and allocator state before timing.
    sample(&spec, &disabled);
    sample(&spec, &noop);

    let mut dis = Vec::with_capacity(SAMPLES);
    let mut en = Vec::with_capacity(SAMPLES);
    for i in 0..SAMPLES {
        // Alternate starting side so neither always runs first.
        if i % 2 == 0 {
            dis.push(sample(&spec, &disabled).as_secs_f64());
            en.push(sample(&spec, &noop).as_secs_f64());
        } else {
            en.push(sample(&spec, &noop).as_secs_f64());
            dis.push(sample(&spec, &disabled).as_secs_f64());
        }
    }

    let med_dis = median(&mut dis);
    let med_en = median(&mut en);
    let per_run_dis = med_dis / BATCH as f64;
    let per_run_en = med_en / BATCH as f64;
    let overhead_pct = (med_en - med_dis) / med_dis * 100.0;

    println!("obs overhead (fig7 synthesis, {SAMPLES} samples x {BATCH} runs):");
    println!("  disabled tracer: median {:.3} ms/run", per_run_dis * 1e3);
    println!("  no-op sink     : median {:.3} ms/run", per_run_en * 1e3);
    println!("  overhead       : {overhead_pct:+.2}% (budget {max_pct}%)");

    if overhead_pct > max_pct {
        eprintln!("obs_overhead: FAIL: instrumentation overhead {overhead_pct:.2}% > {max_pct}%");
        std::process::exit(1);
    }
    println!("obs_overhead: PASS");
}
