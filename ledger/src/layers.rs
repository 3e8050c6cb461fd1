//! Per-layer metrics of the traced run.
//!
//! Three sources, all named after the repository's modules:
//!
//! * **Synthesis statistics** (`core.cegis`, `smt`, `sat`) folded from the
//!   `SynthStats` of the traced compiles, or of the service misses.
//! * **Layer calls** (`ir`, `core.reduce`, `core.skeleton`,
//!   `core.validate`, `hw`, `svc.codec`, `svc.cache`) timed on each pair's
//!   last traced output, outside the timed phase, each call under a
//!   `ledger.<layer>` span.
//! * **The trace**, folded by `ph_obs::profile` into the span table of
//!   `<workload>.layers.json` (see [`span_table`]).
//!
//! `_sum` counts add up, over compiles, each compile's median over its
//! repeats; shares and rates pool every traced compile.  A metric whose
//! layer a workload does not exercise reads 0: the `svc.*` service
//! counters on the compile workloads, the query-latency percentiles on
//! `svc-mixed` (decoded service stats carry no histograms), and
//! `obs.trace_overhead_pct` on `svc-mixed` (its server threads trace
//! through the process-global tracer, which cannot be switched off between
//! passes).
//!
//! Which end-to-end metric, on which workload, each should move:
//!
//! * `ir.validate_us_p50`, `ir.canon_us_p50` (`ParserSpec::validate`;
//!   `canon::canonicalize` + `spec_fingerprint_text`): `latency_ms_mean`
//!   on `svc-mixed`.
//! * `core.reduce_us_p50`, `core.skeleton_us_p50` (`reduce::reduce_spec`,
//!   `skeleton::build_shape`): `compile_s_geomean` on `quick`.
//!   `core.skeleton.space_bits_sum`: `compile_s_total` on `hard`.
//! * `core.cegis.iterations_sum`, `counterexamples_sum`,
//!   `shrink_accept_frac`, `cex_per_check` (counterexamples per verify
//!   check: the share of useful verifies), `synth_share`, `shrink_share`,
//!   `synth_query_ms_p50`/`_p99`: `compile_s_total` on `hard`.
//!   `verify_share`, `overhead_share` (1 minus phase time over compile
//!   wall time), `verify_query_ms_p50`/`_p99`: `compile_s_geomean` on
//!   `quick`.
//! * `smt.clauses_added_sum` (encoding size): `compile_s_total` on `hard`
//!   and `compile_s_geomean` on `quick`.
//! * `sat.conflicts_sum`, `decisions_sum`, `propagations_sum`,
//!   `learnts_sum`, `simplify_s_sum`, `props_per_s`: `compile_s_total` on
//!   `hard`.  `sat.verify_conflicts_max`: `latency_ms_tail` on `quick`.
//!   `sat.arena_mb_max`: `compile_heap_mb_geomean` on `hard`.
//! * `core.validate_ms_p50` (`validate::check_program_against_spec`, the
//!   check inside every compile), `hw.check_us_p50`
//!   (`ph_hw::check_program`), `core.fuzz.pkts_per_s` (`fuzz::check_e2e`
//!   over `ph_ir::simulate` and `ph_hw::run_program`): `compile_s_geomean`
//!   on `quick`.  `core.fuzz.packets_sum` moves nothing: it records how
//!   much the output check covered.
//! * `svc.codec_us_p50` (`spec_*_json` and `program_*_json` round trip),
//!   `svc.cache.lookup_ms_p50` (`SynthCache::lookup`): `latency_ms_mean` on
//!   `svc-mixed`.  `svc.cache.store_ms_p50`: `compile_s_total` on
//!   `svc-mixed`.  `svc.residual_ms_p50` (hit median minus the calls
//!   above: TCP, queue wait, worker hand-off): `latency_ms_mean` on
//!   `svc-mixed`.  `svc.hit_frac`, `svc.dedup_hits`, `svc.rejected`
//!   (daemon counters): `ok_frac` and `latency_ms_mean` on `svc-mixed`.
//! * `obs.trace_overhead_pct`: traced over untraced `compile_s_total`,
//!   minus one, on the compile workloads.
//!
//! Two layers are left out on purpose: `p4f`, because registry specs are
//! built in Rust and parsing costs microseconds, and `baseline`, which is
//! not on ParserHawk's output path.

use crate::gen::Pair;
use crate::stats::{median, medians_by, Metrics, Op};
use ph_core::{OptConfig, RunHists, SynthCache, SynthOutput, SynthParams, SynthStats};
use ph_ir::canon::{canonicalize, spec_fingerprint_text};
use ph_ir::ParserSpec;
use ph_obs::profile::Profile;
use ph_obs::{Histogram, Json};
use ph_sat::SolverStats;
use ph_svc::{codec, DiskCache};
use std::path::Path;
use std::time::Instant;

/// Timed calls per output and layer.
const REPS: usize = 10;

/// One pair's program, kept for the layer calls.
pub struct Output {
    /// Index into the workload's pair list.
    pub pair: usize,
    /// The submitted variant.
    pub spec: ParserSpec,
    /// What came back.
    pub out: SynthOutput,
}

/// Service-side counters (`svc-mixed` only).
pub struct SvcCounters {
    /// Median client-observed latency of a cache hit, in ms.
    pub hit_ms_p50: f64,
    /// Hits over successful requests.
    pub hit_frac: f64,
    /// Requests the daemon attached to an identical in-flight job.
    pub dedup_hits: u64,
    /// Requests the daemon rejected on a full queue.
    pub rejected: u64,
}

/// Everything the per-layer metrics are computed from.
pub struct Inputs<'a> {
    /// The workload's pairs.
    pub pairs: &'a [Pair],
    /// Every timed operation; traced ones carry their statistics.
    pub ops: &'a [Op],
    /// At most one output per pair, for the layer calls.
    pub outputs: Vec<Output>,
    /// Packets the output checks compared.
    pub fuzz_packets: u64,
    /// Seconds the output checks' packet comparison took.
    pub fuzz_secs: f64,
    /// Service counters, for `svc-mixed`.
    pub svc: Option<SvcCounters>,
    /// Traced over untraced `compile_s_total`, minus one, in percent.
    pub trace_overhead_pct: f64,
    /// The run's seed (feeds the validation sampler).
    pub seed: u64,
    /// Directory for the scratch cache of the `svc.cache` calls.
    pub scratch: &'a Path,
}

/// Times `REPS` calls of `f` under span `name`, in microseconds.
fn time_us(name: &'static str, samples: &mut Vec<f64>, mut f: impl FnMut()) {
    let tracer = ph_obs::current();
    for _ in 0..REPS {
        let _s = tracer.span(name);
        let t0 = Instant::now();
        f();
        samples.push(t0.elapsed().as_secs_f64() * 1e6);
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The per-layer metrics, in `BENCHMARK.json` order.
pub fn metrics(inp: &Inputs) -> Metrics {
    let opts = OptConfig::all();
    let params = SynthParams::default();
    let cache = DiskCache::new(inp.scratch.join("layer-cache"));
    let (mut validate, mut canon, mut reduce, mut skeleton) = (vec![], vec![], vec![], vec![]);
    let (mut cvalidate, mut hwcheck, mut codec_rt, mut lookup, mut store) =
        (vec![], vec![], vec![], vec![], vec![]);
    for o in &inp.outputs {
        let device = inp.pairs[o.pair].device.profile();
        let spec = &o.spec;
        let program = &o.out.program;
        time_us("ledger.ir.validate", &mut validate, || {
            std::hint::black_box(spec.validate()).expect("variant validates");
        });
        time_us("ledger.ir.canon", &mut canon, || {
            std::hint::black_box(spec_fingerprint_text(&canonicalize(spec).spec));
        });
        let loopy = !ph_ir::analysis::is_loop_free(spec) && device.allows_loops();
        if let Ok(reduced) = ph_core::reduce::reduce_spec(spec, opts) {
            time_us("ledger.core.reduce", &mut reduce, || {
                std::hint::black_box(ph_core::reduce::reduce_spec(spec, opts)).ok();
            });
            time_us("ledger.core.skeleton", &mut skeleton, || {
                std::hint::black_box(ph_core::skeleton::build_shape(
                    &reduced, &device, opts, loopy, None,
                ))
                .ok();
            });
        }
        time_us("ledger.core.validate", &mut cvalidate, || {
            std::hint::black_box(ph_core::validate::check_program_against_spec(
                spec, program, inp.seed, 400,
            ))
            .expect("checked outputs validate");
        });
        time_us("ledger.hw.check", &mut hwcheck, || {
            std::hint::black_box(ph_hw::check_program(program, &spec.fields));
        });
        time_us("ledger.svc.codec", &mut codec_rt, || {
            let s = Json::parse(&codec::spec_to_json(spec).to_string()).expect("spec JSON parses");
            let p = Json::parse(&codec::program_to_json(program).to_string())
                .expect("program JSON parses");
            std::hint::black_box(codec::spec_from_json(&s).expect("spec decodes"));
            std::hint::black_box(codec::program_from_json(&p).expect("program decodes"));
        });
        time_us("ledger.svc.cache.store", &mut store, || {
            cache.store(spec, &device, opts, &params, &o.out);
        });
        time_us("ledger.svc.cache.lookup", &mut lookup, || {
            std::hint::black_box(cache.lookup(spec, &device, opts, &params))
                .expect("stored entry is found");
        });
    }
    let _ = std::fs::remove_dir_all(cache.dir());

    // Synthesis statistics of the traced operations.
    let traced: Vec<&Op> = inp.ops.iter().filter(|o| o.stats.is_some()).collect();
    fn stat(o: &Op) -> &SynthStats {
        o.stats.as_ref().expect("filtered on stats")
    }
    // Counts are summed over compiles, each the median over its repeats.
    let sum_of_medians = |f: &dyn Fn(&SynthStats) -> f64| -> f64 {
        medians_by(inp.ops, |o| o.key, |o| o.stats.is_some(), |o| f(stat(o)))
            .iter()
            .map(|(_, m)| m)
            .sum()
    };
    let both = |f: fn(&SolverStats) -> u64| {
        move |s: &SynthStats| (f(&s.synth_sat) + f(&s.verify_sat)) as f64
    };
    let total = |f: &dyn Fn(&SynthStats) -> f64| -> f64 { traced.iter().map(|o| f(stat(o))).sum() };
    let wall = total(&|s| s.wall.as_secs_f64()).max(1e-9);
    let synth = total(&|s| s.synth_time.as_secs_f64());
    let verify = total(&|s| s.verify_time.as_secs_f64());
    let shrink = total(&|s| s.shrink_time.as_secs_f64());
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut hists = RunHists::default();
    for o in &traced {
        hists.merge(&stat(o).hists);
    }
    let q_ms = |h: &Histogram, q: f64| {
        if h.count() == 0 {
            0.0
        } else {
            ms(h.quantile(q))
        }
    };

    let mut m = Metrics::default();
    m.push("ir.validate_us_p50", median(&validate), "us");
    m.push("ir.canon_us_p50", median(&canon), "us");
    m.push("core.reduce_us_p50", median(&reduce), "us");
    m.push("core.skeleton_us_p50", median(&skeleton), "us");
    m.push(
        "core.skeleton.space_bits_sum",
        sum_of_medians(&|s| s.search_space_bits as f64),
        "bits",
    );
    m.push(
        "core.cegis.iterations_sum",
        sum_of_medians(&|s| s.cegis_iterations as f64),
        "count",
    );
    m.push(
        "core.cegis.counterexamples_sum",
        sum_of_medians(&|s| s.counterexamples as f64),
        "count",
    );
    m.push(
        "core.cegis.shrink_accept_frac",
        ratio(
            total(&|s| s.shrink_accepted as f64),
            total(&|s| s.shrink_trials as f64),
        ),
        "ratio",
    );
    m.push(
        "core.cegis.cex_per_check",
        ratio(
            total(&|s| s.counterexamples as f64),
            total(&|s| s.verify_checks as f64),
        ),
        "ratio",
    );
    m.push("core.cegis.synth_share", synth / wall, "ratio");
    m.push("core.cegis.verify_share", verify / wall, "ratio");
    m.push("core.cegis.shrink_share", shrink / wall, "ratio");
    m.push(
        "core.cegis.overhead_share",
        1.0 - (synth + verify + shrink) / wall,
        "ratio",
    );
    m.push(
        "core.cegis.synth_query_ms_p50",
        q_ms(&hists.synth_query_ns, 0.5),
        "ms",
    );
    m.push(
        "core.cegis.synth_query_ms_p99",
        q_ms(&hists.synth_query_ns, 0.99),
        "ms",
    );
    m.push(
        "core.cegis.verify_query_ms_p50",
        q_ms(&hists.verify_query_ns, 0.5),
        "ms",
    );
    m.push(
        "core.cegis.verify_query_ms_p99",
        q_ms(&hists.verify_query_ns, 0.99),
        "ms",
    );
    m.push(
        "smt.clauses_added_sum",
        sum_of_medians(&both(|s| s.clauses_added)),
        "count",
    );
    m.push(
        "sat.conflicts_sum",
        sum_of_medians(&both(|s| s.conflicts)),
        "count",
    );
    m.push(
        "sat.decisions_sum",
        sum_of_medians(&both(|s| s.decisions)),
        "count",
    );
    m.push(
        "sat.propagations_sum",
        sum_of_medians(&both(|s| s.propagations)),
        "count",
    );
    m.push(
        "sat.learnts_sum",
        sum_of_medians(&both(|s| s.learnts)),
        "count",
    );
    m.push(
        "sat.simplify_s_sum",
        sum_of_medians(&|s| both(|x| x.simplify_time_ns)(s) / 1e9),
        "s",
    );
    m.push(
        "sat.props_per_s",
        ratio(total(&both(|s| s.propagations)), synth + verify + shrink),
        "1/s",
    );
    m.push(
        "sat.verify_conflicts_max",
        traced
            .iter()
            .map(|o| stat(o).max_verify_conflicts as f64)
            .fold(0.0, f64::max),
        "count",
    );
    m.push(
        "sat.arena_mb_max",
        traced
            .iter()
            .map(|o| {
                stat(o)
                    .synth_sat
                    .arena_bytes
                    .max(stat(o).verify_sat.arena_bytes) as f64
                    / 1e6
            })
            .fold(0.0, f64::max),
        "MB",
    );
    m.push("core.validate_ms_p50", median(&cvalidate) / 1e3, "ms");
    m.push("hw.check_us_p50", median(&hwcheck), "us");
    m.push(
        "core.fuzz.pkts_per_s",
        ratio(inp.fuzz_packets as f64, inp.fuzz_secs),
        "1/s",
    );
    m.push("core.fuzz.packets_sum", inp.fuzz_packets as f64, "count");
    m.push("svc.codec_us_p50", median(&codec_rt), "us");
    m.push("svc.cache.lookup_ms_p50", median(&lookup) / 1e3, "ms");
    m.push("svc.cache.store_ms_p50", median(&store) / 1e3, "ms");
    let svc = inp.svc.as_ref();
    let residual = svc.map_or(0.0, |s| {
        s.hit_ms_p50
            - (median(&validate) + median(&canon) + median(&codec_rt)) / 1e3
            - median(&lookup) / 1e3
    });
    m.push("svc.residual_ms_p50", residual, "ms");
    m.push("svc.hit_frac", svc.map_or(0.0, |s| s.hit_frac), "ratio");
    m.push(
        "svc.dedup_hits",
        svc.map_or(0.0, |s| s.dedup_hits as f64),
        "count",
    );
    m.push(
        "svc.rejected",
        svc.map_or(0.0, |s| s.rejected as f64),
        "count",
    );
    m.push("obs.trace_overhead_pct", inp.trace_overhead_pct, "%");
    m
}

/// Every span name of the trace with its self-time share (of all self
/// time), call count and duration percentiles.
pub fn span_table(profile: &Profile) -> Json {
    let self_total: u64 = profile.spans.values().map(|s| s.self_ns).sum();
    let mut table = Json::obj();
    for (name, s) in &profile.spans {
        table.set(
            name,
            Json::obj()
                .with("self_share", s.self_ns as f64 / self_total.max(1) as f64)
                .with("calls", s.calls)
                .with("p50_ms", ms(s.dur.p50()))
                .with("p99_ms", ms(s.dur.p99())),
        );
    }
    table
}
