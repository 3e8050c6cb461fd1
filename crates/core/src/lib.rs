//! # ph-core
//!
//! The ParserHawk synthesis engine (§5–§6 of the paper): a CEGIS
//! (counterexample-guided inductive synthesis) compiler from parser
//! specifications to TCAM programs for heterogeneous devices.
//!
//! Pipeline (Fig. 8):
//!
//! 1. **Code analyzer / reducer** ([`reduce`]) — applies Opt2 (bit-width
//!    minimization of irrelevant fields) and Opt6 (varbit fields treated as
//!    fixed-size) to shrink the input space.
//! 2. **Skeleton** ([`skeleton`]) — a parameterized TCAM-machine template:
//!    one hardware state per extracted field (Opt3 preallocation) plus spare
//!    key-checking states, per-state key-source allocation variables over
//!    spec-derived bit groups (Opt1 + Opt5), and per-entry value/mask/next
//!    symbols with value selection restricted to spec constants and their
//!    combinations/subranges (Opt4).  Device constraints (φ_tofino /
//!    φ_IPU of Figs. 10–11) are asserted structurally.
//! 3. **CEGIS loop** ([`cegis`]) — synthesis over accumulated test cases in
//!    one incremental solver, symbolic verification against the enumerated
//!    spec paths (φ_spec, Fig. 12), counterexamples feeding back, and an
//!    outer descent on the resource budget (TCAM entries for Tofino, stages
//!    for the IPU).
//! 4. **Post-synthesis optimizer** ([`post`]) — §5.3: chain-state merging
//!    and extraction splitting; varbit/width restoration is automatic
//!    because emitted programs reference the original field table.
//! 5. **Validation** ([`fuzz::check_e2e`]) — the Fig. 22 simulator check
//!    against the *original* specification, on [`fuzz::GATE_PACKETS`]
//!    grammar-aware, mutated and random packets.
//!
//! Opt7 (parallel racing of loop-aware/loop-free skeletons and budget
//! subproblems) lives in [`parallel`].

pub mod bounds;
pub mod cegis;
pub mod encode;
pub mod fuzz;
pub mod parallel;
pub mod post;
pub mod reduce;
pub mod skeleton;
pub mod specenc;
pub mod validate;

use ph_hw::{DeviceProfile, TcamProgram};
use ph_ir::canon::Canon;
use ph_ir::ParserSpec;
use ph_sat::SolverStats;
use std::cell::OnceCell;
use std::fmt;
use std::time::Duration;

/// Which optimizations are enabled (§6).  Each flag is honest: disabling it
/// genuinely enlarges the encoding, which is how the Table 3 `Orig` column
/// and the Table 5 ablations are measured.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OptConfig {
    /// Opt1: restrict key-source bits to those used in the spec.
    pub opt1_spec_keys: bool,
    /// Opt2: shrink irrelevant fields to one bit during synthesis.
    pub opt2_bitwidth: bool,
    /// Opt3: preallocate one extracted field per hardware state.
    pub opt3_prealloc: bool,
    /// Opt4: restrict entry values to spec constants (+ concatenations and
    /// hardware-width subranges).
    pub opt4_constants: bool,
    /// Opt5: allocate contiguous field bits as indivisible groups.
    pub opt5_grouping: bool,
    /// Opt6: treat varbit fields as fixed-size during synthesis.
    pub opt6_fixed_varbit: bool,
    /// Opt7: race loop-aware and loop-free skeletons in parallel.
    pub opt7_parallel: bool,
}

impl OptConfig {
    /// All optimizations on (the paper's default).
    pub fn all() -> OptConfig {
        OptConfig {
            opt1_spec_keys: true,
            opt2_bitwidth: true,
            opt3_prealloc: true,
            opt4_constants: true,
            opt5_grouping: true,
            opt6_fixed_varbit: true,
            opt7_parallel: true,
        }
    }

    /// All optimizations off — the naive "Orig" encoding of Table 3.
    /// (Opt6 stays on because varbit handling without it is undefined; the
    /// paper's baseline does the same for benchmarks that need it.)
    pub fn none() -> OptConfig {
        OptConfig {
            opt1_spec_keys: false,
            opt2_bitwidth: false,
            opt3_prealloc: false,
            opt4_constants: false,
            opt5_grouping: false,
            opt6_fixed_varbit: true,
            opt7_parallel: false,
        }
    }

    /// The Table 5 "Other OPT" configuration: everything but Opt4 and Opt5.
    pub fn without_opt45() -> OptConfig {
        OptConfig {
            opt4_constants: false,
            opt5_grouping: false,
            ..OptConfig::all()
        }
    }

    /// The Table 5 "+OPT5" configuration: everything but Opt4.
    pub fn without_opt4() -> OptConfig {
        OptConfig {
            opt4_constants: false,
            ..OptConfig::all()
        }
    }
}

/// A pluggable synthesis-result cache (implemented by `ph-svc`'s
/// content-addressed disk store; `ph-core` only defines the hook so the
/// dependency points outward).
///
/// [`Synthesizer::synthesize`] consults the cache after spec validation
/// and before any solver work; on a miss it stores successful outputs.
/// Both calls take one [`CacheQuery`], which canonicalizes the spec once
/// and memoizes the implementation's content key, so a lookup and its
/// store (or a daemon's reply key and its lookup) share that work.
/// Implementations derive their keys from the query's full
/// `(canonical spec, device, opts, params)` context and MUST return
/// outputs that are byte-identical to what a fresh run would have
/// produced for the *same* spec instance (field ids in the returned
/// program index the querying spec's field table).
pub trait SynthCache: Send + Sync {
    /// Returns the cached output for this query, or `None`.
    fn lookup_query(&self, query: &CacheQuery<'_>) -> Option<SynthOutput>;

    /// Records a freshly synthesized output.  Failures are the
    /// implementation's to swallow — a broken cache must never fail a
    /// synthesis run that already succeeded.
    fn store_query(&self, query: &CacheQuery<'_>, out: &SynthOutput);

    /// [`SynthCache::lookup_query`] on a fresh query.
    fn lookup(
        &self,
        spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        params: &SynthParams,
    ) -> Option<SynthOutput> {
        self.lookup_query(&CacheQuery::new(spec, device, opts, params))
    }

    /// [`SynthCache::store_query`] on a fresh query.
    fn store(
        &self,
        spec: &ParserSpec,
        device: &DeviceProfile,
        opts: OptConfig,
        params: &SynthParams,
        out: &SynthOutput,
    ) {
        self.store_query(&CacheQuery::new(spec, device, opts, params), out)
    }
}

/// One question to a [`SynthCache`]: a spec, its canonical form and the
/// synthesis context.  Building it canonicalizes the spec (the
/// `ir.canon` span); the content key is derived on first use and kept.
#[derive(Debug)]
pub struct CacheQuery<'a> {
    /// The querying spec (its field numbering is the one outputs use).
    pub spec: &'a ParserSpec,
    /// `spec` canonicalized: the key's input and the field remapping.
    pub canon: Canon,
    /// The target device.
    pub device: &'a DeviceProfile,
    /// The optimization configuration.
    pub opts: OptConfig,
    /// The run parameters.
    pub params: &'a SynthParams,
    key: OnceCell<String>,
}

impl<'a> CacheQuery<'a> {
    /// Canonicalizes `spec` and wraps the context.
    pub fn new(
        spec: &'a ParserSpec,
        device: &'a DeviceProfile,
        opts: OptConfig,
        params: &'a SynthParams,
    ) -> CacheQuery<'a> {
        CacheQuery {
            spec,
            canon: ph_ir::canon::canonicalize(spec),
            device,
            opts,
            params,
            key: OnceCell::new(),
        }
    }

    /// The query's content key: `derive` computes it on the first call,
    /// later calls return the kept value.  One cache implementation
    /// derives the key of a query, so every caller passes the same
    /// function.
    pub fn key_with(&self, derive: impl FnOnce(&CacheQuery<'a>) -> String) -> &str {
        self.key.get_or_init(|| derive(self))
    }
}

/// A cloneable [`SynthCache`] handle for [`SynthParams::cache`].
#[derive(Clone)]
pub struct CacheHook(pub std::sync::Arc<dyn SynthCache>);

impl fmt::Debug for CacheHook {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("CacheHook(..)")
    }
}

/// Knobs of a synthesis run.
#[derive(Clone, Debug)]
pub struct SynthParams {
    /// Wall-clock budget; `None` = unlimited.
    pub timeout: Option<Duration>,
    /// Cap on CEGIS iterations per budget level.
    pub max_cegis_iters: usize,
    /// Cap on loop unrolling for loopy specifications.
    pub max_loop_iters: usize,
    /// Extra no-extraction states available for key splitting.
    pub spare_states: Option<usize>,
    /// Random seed for initial test-case generation.
    pub seed: u64,
    /// Run-scoped tracer.  `Some` installs the tracer as the thread tracer
    /// for the run's duration (Opt7 race branches derive per-branch
    /// streams from it); `None` inherits the ambient [`ph_obs::current`]
    /// tracer, which is disabled unless the binary installed a global one.
    pub tracer: Option<ph_obs::Tracer>,
    /// Synthesis-result cache.  `Some` makes [`Synthesizer::synthesize`]
    /// consult the cache before solving and store successful outputs
    /// after; `None` (the default) always synthesizes from scratch.
    /// `ph-svc` provides the content-addressed disk implementation
    /// (`ph_svc::DiskCache`).
    pub cache: Option<CacheHook>,
}

impl Default for SynthParams {
    fn default() -> Self {
        SynthParams {
            timeout: Some(Duration::from_secs(120)),
            max_cegis_iters: 160,
            max_loop_iters: 8,
            spare_states: None,
            seed: 0x9aa5,
            tracer: None,
            cache: None,
        }
    }
}

ph_obs::stats! {
    /// Per-run latency histograms (log-bucketed, mergeable;
    /// [`ph_obs::Histogram`]).  Recorded unconditionally — they are a few
    /// bucket increments per solver query — so untraced benchmark runs
    /// still export tail latencies (p50/p90/p99) in `results/table*.json`.
    /// They decode empty, so cache entries keep no distributions.
    #[derive(Clone, Debug, Default)]
    pub struct RunHists {
        /// Synthesis-phase solver query durations, in nanoseconds.
        synth_query_ns: ph_obs::Histogram = "synth_query_ns",
        /// Verification query durations (candidate checks), in nanoseconds.
        verify_query_ns: ph_obs::Histogram = "verify_query_ns",
        /// Shrink trial (entry-deletion and mask-clearing) durations, in
        /// nanoseconds.
        shrink_query_ns: ph_obs::Histogram = "shrink_query_ns",
        /// CDCL conflicts per verification query — the distribution behind
        /// [`SynthStats::max_verify_conflicts`].
        verify_conflicts: ph_obs::Histogram = "verify_conflicts",
    }
}

impl RunHists {
    /// Folds another set of histograms into this one (bucket-wise sums).
    pub fn merge(&mut self, other: &RunHists) {
        self.synth_query_ns.merge(&other.synth_query_ns);
        self.verify_query_ns.merge(&other.verify_query_ns);
        self.shrink_query_ns.merge(&other.shrink_query_ns);
        self.verify_conflicts.merge(&other.verify_conflicts);
    }
}

ph_obs::stats! {
    /// Statistics of a synthesis run (the Table 3 columns).  `to_json` is
    /// the per-spec payload of the machine-readable benchmark results
    /// (`results/table*.json`) and of result-cache entries.
    #[derive(Clone, Debug, Default)]
    pub struct SynthStats {
        /// Total width in bits of the skeleton's decision variables — the
        /// "Search Space (bits)" column.
        search_space_bits: usize = "search_space_bits",
        /// CEGIS iterations across all budget levels.
        cegis_iterations: usize = "cegis_iterations",
        /// Test cases accumulated.
        test_cases: usize = "test_cases",
        /// Counterexamples returned by verification.
        counterexamples: usize = "counterexamples",
        /// Budget levels explored during minimization.
        budget_levels: usize = "budget_levels",
        /// Verification solver instances constructed.  With the incremental
        /// engine this is exactly 1 per synthesis run (it was one per candidate
        /// plus one per `shrink_masks` trial before).
        verify_solver_builds: usize = "verify_solver_builds",
        /// Verification queries issued (candidate checks + shrink trials).
        verify_checks: usize = "verify_checks",
        /// Shrink trials attempted: entry deletions from each verified
        /// entry-phase candidate, and mask clearing after the descent.
        shrink_trials: usize = "shrink_trials",
        /// Shrink trials (entry deletions and mask clearings) that verified
        /// and were kept.
        shrink_accepted: usize = "shrink_accepted",
        /// Wall-clock time inside synthesis-phase solver checks.
        synth_time: Duration = "synth_time_s",
        /// Wall-clock time inside verification (encoding + candidate queries;
        /// shrink trials are accounted under [`SynthStats::shrink_time`]).
        verify_time: Duration = "verify_time_s",
        /// Wall-clock time inside shrink trials: the entry-deletion passes
        /// between budget levels and the mask-shrinking pass.
        shrink_time: Duration = "shrink_time_s",
        /// Wall-clock time spent.
        wall: Duration = "wall_s",
        /// CDCL effort of the synthesis-phase solver (cumulative totals; the
        /// per-query deltas stream out as `smt.*`/`verify.*`/`shrink.*` counters).
        synth_sat: SolverStats = "synth_sat",
        /// CDCL effort of the persistent verification solver.
        verify_sat: SolverStats = "verify_sat",
        /// The most conflicts any single verification query needed — the
        /// worst-case incremental `check_assuming` cost.
        max_verify_conflicts: u64 = "max_verify_conflicts",
        /// 1 when this output was served from the synthesis-result cache
        /// ([`SynthParams::cache`]); the other counters then describe the
        /// *original* run that populated the entry.
        cache_hits: u64 = "cache_hits",
        /// 1 when a configured cache was consulted and missed (0 when no
        /// cache was configured at all).
        cache_misses: u64 = "cache_misses",
        /// Per-query latency and conflict distributions.
        hists: RunHists = "hists",
    }
}

/// A successful synthesis result.
#[derive(Clone, Debug)]
pub struct SynthOutput {
    /// The compiled, validated program.
    pub program: TcamProgram,
    /// Run statistics.
    pub stats: SynthStats,
}

/// Why synthesis failed.
#[derive(Clone, Debug)]
pub enum SynthError {
    /// No implementation exists within the device's resources.
    Infeasible(String),
    /// The wall-clock budget expired before a verdict.  Boxed: a
    /// [`SynthStats`] (two embedded [`SolverStats`]) would otherwise
    /// dominate every `Result`'s size.
    Timeout(Box<SynthStats>),
    /// The specification uses a feature outside the supported fragment.
    Unsupported(String),
    /// The synthesized program failed final validation (an engine bug —
    /// surfaced rather than silently returned).
    ValidationFailed(String),
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::Infeasible(m) => write!(f, "infeasible: {m}"),
            SynthError::Timeout(s) => write!(f, "timeout after {:?}", s.wall),
            SynthError::Unsupported(m) => write!(f, "unsupported: {m}"),
            SynthError::ValidationFailed(m) => write!(f, "validation failed: {m}"),
        }
    }
}

impl std::error::Error for SynthError {}

/// The top-level compiler: device profile + optimization configuration.
///
/// ```
/// use ph_core::{Synthesizer, OptConfig};
/// use ph_hw::DeviceProfile;
///
/// let spec = ph_p4f::parse_parser(r#"
///     header h_t { v : 4; }
///     parser {
///         state start {
///             extract(h_t);
///             transition select(h_t.v) { 7 : accept; default : reject; }
///         }
///     }
/// "#).unwrap();
/// let out = Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
///     .synthesize(&spec)
///     .unwrap();
/// assert!(out.program.entry_count() >= 1);
/// ```
pub struct Synthesizer {
    device: DeviceProfile,
    opts: OptConfig,
    params: SynthParams,
}

impl Synthesizer {
    /// Creates a synthesizer with default parameters.
    pub fn new(device: DeviceProfile, opts: OptConfig) -> Synthesizer {
        Synthesizer {
            device,
            opts,
            params: SynthParams::default(),
        }
    }

    /// Overrides the run parameters.
    pub fn with_params(mut self, params: SynthParams) -> Synthesizer {
        self.params = params;
        self
    }

    /// Compiles `spec` into a validated [`TcamProgram`].
    ///
    /// # Errors
    ///
    /// See [`SynthError`].
    pub fn synthesize(&self, spec: &ParserSpec) -> Result<SynthOutput, SynthError> {
        let _tracer_guard = self
            .params
            .tracer
            .as_ref()
            .map(|t| ph_obs::set_thread_tracer(t.clone()));
        let tracer = ph_obs::current();
        let _span = tracer.span("synth.total");
        spec.validate()
            .map_err(|e| SynthError::Unsupported(e.to_string()))?;
        // One query serves the lookup and, on a miss, the store.
        let query = match &self.params.cache {
            Some(hook) => {
                let (query, hit) = {
                    let _s = tracer.span("cache.lookup");
                    let query = CacheQuery::new(spec, &self.device, self.opts, &self.params);
                    let hit = hook.0.lookup_query(&query);
                    (query, hit)
                };
                if let Some(mut out) = hit {
                    tracer.count("svc.cache.hit", 1);
                    out.stats.cache_hits = 1;
                    out.stats.cache_misses = 0;
                    return Ok(out);
                }
                tracer.count("svc.cache.miss", 1);
                Some((hook, query))
            }
            None => None,
        };
        let mut result = if self.opts.opt7_parallel {
            parallel::synthesize_racing(spec, &self.device, self.opts, &self.params)
        } else {
            cegis::synthesize_one(
                spec,
                &self.device,
                self.opts,
                &self.params,
                cegis::LoopMode::Auto,
                None,
            )
        };
        if let (Some((hook, query)), Ok(out)) = (&query, &mut result) {
            out.stats.cache_misses = 1;
            let _s = tracer.span("cache.store");
            hook.0.store_query(query, out);
        }
        result
    }

    /// The device profile this synthesizer targets.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// The optimization configuration.
    pub fn opts(&self) -> OptConfig {
        self.opts
    }
}
