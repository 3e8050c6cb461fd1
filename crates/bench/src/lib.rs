//! # ph-bench
//!
//! The experiment harness: shared runners behind the `table3`, `table4`
//! and `table5` binaries that regenerate the paper's tables, plus helper
//! formatting (geometric means, timeout rows).
//!
//! Environment knobs:
//!
//! * `PH_OPT_TIMEOUT_SECS` — wall budget for optimized ParserHawk runs
//!   (default 30).
//! * `PH_ORIG_TIMEOUT_SECS` — wall budget for the naive "Orig" encoding
//!   (default 10; the paper used 24 h — timeouts print as `>Ns`, exactly
//!   like the paper's `>86400` rows).
//! * `PH_CACHE_DIR` — enables the `ph-svc` content-addressed result
//!   cache for every ParserHawk run (`PH_CACHE_BUDGET_BYTES` bounds its
//!   size); repeated table runs then replay cached programs instead of
//!   re-synthesizing.  Cached rows report near-zero times — use a fresh
//!   or no cache directory when measuring synthesis itself.

pub mod diff;
pub mod harness;
pub mod report;

use ph_baseline::{compile_dp, compile_ipu, compile_tofino};
use ph_core::{OptConfig, SynthError, SynthParams, SynthStats, Synthesizer};
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use std::time::{Duration, Instant};

/// Result of one compiler run on one case.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// TCAM entries of the output (when successful).
    pub entries: Option<usize>,
    /// Stages used (when successful).
    pub stages: Option<usize>,
    /// Search-space bits (ParserHawk runs only).
    pub space_bits: Option<usize>,
    /// Wall-clock time.
    pub time: Duration,
    /// True when the run timed out.
    pub timed_out: bool,
    /// Failure annotation (baseline rejects, infeasible, ...).
    pub failure: Option<String>,
    /// Full synthesis statistics (ParserHawk runs that finished or timed
    /// out; `None` for baseline compilers and hard failures).
    pub stats: Option<SynthStats>,
}

impl RunResult {
    /// Renders the time column (`12.34` or `>30` for timeouts).
    pub fn time_cell(&self, budget: Duration) -> String {
        if self.timed_out {
            format!(">{}", budget.as_secs())
        } else {
            format!("{:.2}", self.time.as_secs_f64())
        }
    }

    /// True when the run produced a program.
    pub fn ok(&self) -> bool {
        self.failure.is_none() && !self.timed_out
    }
}

/// Reads a duration knob from the environment.
pub fn env_secs(name: &str, default: u64) -> Duration {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .map(Duration::from_secs)
        .unwrap_or(Duration::from_secs(default))
}

/// Runs ParserHawk on one case.
pub fn run_parserhawk(
    spec: &ParserSpec,
    device: &DeviceProfile,
    opts: OptConfig,
    timeout: Duration,
) -> RunResult {
    run_parserhawk_simplify(spec, device, opts, timeout, true)
}

/// [`run_parserhawk`] with explicit control over CNF simplification in the
/// SAT engines — the `solver_bench` binary uses this to measure the
/// simplifier's on/off speed-up on identical workloads.
pub fn run_parserhawk_simplify(
    spec: &ParserSpec,
    device: &DeviceProfile,
    opts: OptConfig,
    timeout: Duration,
    simplify: bool,
) -> RunResult {
    let t0 = Instant::now();
    let r = Synthesizer::new(device.clone(), opts)
        .with_params(SynthParams {
            timeout: Some(timeout),
            simplify,
            cache: ph_svc::DiskCache::from_env(),
            ..Default::default()
        })
        .synthesize(spec);
    finish_run(r, t0.elapsed())
}

/// Shared result shaping for the ParserHawk runners.
fn finish_run(r: Result<ph_core::SynthOutput, SynthError>, time: Duration) -> RunResult {
    match r {
        Ok(out) => RunResult {
            entries: Some(out.program.entry_count()),
            stages: Some(out.program.stages_used()),
            space_bits: Some(out.stats.search_space_bits),
            time,
            timed_out: false,
            failure: None,
            stats: Some(out.stats),
        },
        Err(SynthError::Timeout(stats)) => RunResult {
            entries: None,
            stages: None,
            space_bits: Some(stats.search_space_bits),
            time,
            timed_out: true,
            failure: None,
            stats: Some(*stats),
        },
        Err(e) => RunResult {
            entries: None,
            stages: None,
            space_bits: None,
            time,
            timed_out: false,
            failure: Some(e.to_string()),
            stats: None,
        },
    }
}

// The worker-pool primitives moved to `ph-svc` (the daemon shares them);
// re-exported here so the table binaries and external callers keep their
// `ph_bench::par_map` / `ph_bench::jobs_from_args` paths.
pub use ph_svc::{jobs_from_args, par_map};

/// Runs a baseline compiler closure, capturing failures as annotations.
pub fn run_baseline<F>(f: F) -> RunResult
where
    F: FnOnce() -> Result<ph_hw::TcamProgram, ph_baseline::CompileError>,
{
    let t0 = Instant::now();
    match f() {
        Ok(p) => RunResult {
            entries: Some(p.entry_count()),
            stages: Some(p.stages_used()),
            space_bits: None,
            time: t0.elapsed(),
            timed_out: false,
            failure: None,
            stats: None,
        },
        Err(e) => RunResult {
            entries: None,
            stages: None,
            space_bits: None,
            time: t0.elapsed(),
            timed_out: false,
            failure: Some(e.to_string()),
            stats: None,
        },
    }
}

/// Convenience wrappers around the baseline compilers.
pub fn baseline_tofino(spec: &ParserSpec, device: &DeviceProfile) -> RunResult {
    run_baseline(|| compile_tofino(spec, device))
}

/// See [`baseline_tofino`].
pub fn baseline_ipu(spec: &ParserSpec, device: &DeviceProfile) -> RunResult {
    run_baseline(|| compile_ipu(spec, device))
}

/// See [`baseline_tofino`].
pub fn baseline_dp(spec: &ParserSpec, device: &DeviceProfile) -> RunResult {
    run_baseline(|| compile_dp(spec, device))
}

/// Geometric mean of speed-up factors.  `(value, is_lower_bound)` pairs —
/// a lower bound arises when the Orig run timed out.
pub fn geomean(factors: &[(f64, bool)]) -> (f64, bool) {
    if factors.is_empty() {
        return (1.0, false);
    }
    let log_sum: f64 = factors.iter().map(|(f, _)| f.max(1e-9).ln()).sum();
    let any_lb = factors.iter().any(|&(_, lb)| lb);
    ((log_sum / factors.len() as f64).exp(), any_lb)
}

/// Formats a short failure annotation (first clause of the error).
pub fn short_failure(r: &RunResult) -> String {
    match &r.failure {
        Some(f) => {
            let first = f.split(':').next().unwrap_or(f);
            first.trim().to_string()
        }
        None => "-".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_known_factors() {
        let (g, lb) = geomean(&[(4.0, false), (16.0, false)]);
        assert!((g - 8.0).abs() < 1e-9);
        assert!(!lb);
        let (_, lb) = geomean(&[(4.0, true), (16.0, false)]);
        assert!(lb);
    }

    #[test]
    fn harness_runs_a_tiny_case() {
        let b = ph_benchmarks::suite::dash_v1();
        let dev = DeviceProfile::tofino();
        let ph = run_parserhawk(&b.spec, &dev, OptConfig::all(), Duration::from_secs(30));
        assert!(ph.ok(), "{:?}", ph.failure);
        let bl = baseline_tofino(&b.spec, &dev);
        assert!(bl.ok());
        assert!(ph.entries.unwrap() <= bl.entries.unwrap());
    }
}
