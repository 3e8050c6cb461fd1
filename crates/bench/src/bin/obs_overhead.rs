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
//! Knobs: `PH_OBS_SAMPLES` (default 15 per side), `PH_OBS_BATCH` (default
//! 20 runs per sample), `PH_OBS_MAX_OVERHEAD_PCT` (default 2.0; the run
//! exits non-zero above it).  Results are recorded in EXPERIMENTS.md.

use ph_bench::env_parse;
use ph_core::{OptConfig, SynthParams, Synthesizer};
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::{NoopSink, Tracer};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// One sample: `batch` full synthesis runs with the given tracer.
fn sample(spec: &ParserSpec, tracer: &Tracer, batch: usize) -> Duration {
    let t0 = Instant::now();
    for _ in 0..batch {
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
    let samples = env_parse::<usize>("PH_OBS_SAMPLES", 15).max(1);
    let batch = env_parse::<usize>("PH_OBS_BATCH", 20).max(1);
    let max_pct: f64 = env_parse("PH_OBS_MAX_OVERHEAD_PCT", 2.0);

    let spec = fig7_spec();
    let disabled = Tracer::disabled();
    let noop = Tracer::new(Arc::new(NoopSink));

    // Warm-up: fault in code and allocator state before timing.
    sample(&spec, &disabled, batch);
    sample(&spec, &noop, batch);

    let mut dis = Vec::with_capacity(samples);
    let mut en = Vec::with_capacity(samples);
    for i in 0..samples {
        // Alternate starting side so neither always runs first.
        if i % 2 == 0 {
            dis.push(sample(&spec, &disabled, batch).as_secs_f64());
            en.push(sample(&spec, &noop, batch).as_secs_f64());
        } else {
            en.push(sample(&spec, &noop, batch).as_secs_f64());
            dis.push(sample(&spec, &disabled, batch).as_secs_f64());
        }
    }

    let med_dis = median(&mut dis);
    let med_en = median(&mut en);
    let per_run_dis = med_dis / batch as f64;
    let per_run_en = med_en / batch as f64;
    let overhead_pct = (med_en - med_dis) / med_dis * 100.0;

    println!("obs overhead (fig7 synthesis, {samples} samples x {batch} runs):");
    println!("  disabled tracer: median {:.3} ms/run", per_run_dis * 1e3);
    println!("  no-op sink     : median {:.3} ms/run", per_run_en * 1e3);
    println!("  overhead       : {overhead_pct:+.2}% (budget {max_pct}%)");

    if overhead_pct > max_pct {
        eprintln!("obs_overhead: FAIL: instrumentation overhead {overhead_pct:.2}% > {max_pct}%");
        std::process::exit(1);
    }
    println!("obs_overhead: PASS");
}
