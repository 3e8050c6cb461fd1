//! # ph-bench
//!
//! The experiment harness: shared runners behind the `table3`, `table4`
//! and `table5` binaries that regenerate the paper's tables, plus helper
//! formatting (geometric means, timeout rows).  The other binaries check
//! what those tables produce: `check_schema` validates results files and
//! traces, `bench_diff` is the exact quality/status gate against the
//! committed `results/table*.json` baselines, `trace_prof` profiles a
//! trace, `fuzz_e2e` is the differential fuzzing oracle, `cnf_replay`
//! measures the CNF simplifier on byte-identical query streams, and
//! `obs_overhead` gates the tracing layer's cost.  Timing regressions are
//! judged by the standalone `ledger` benchmark (`ledger compare`).
//!
//! `phd` and `ph_client`, the synthesis daemon and its client, live here
//! too, so every binary reads its configuration once through the same
//! [`Config`]; `--jobs N` ([`jobs_from_args`]) sizes the [`par_map`]
//! worker pool.  `PH_CACHE_DIR` enables the
//! `ph-svc` content-addressed result cache for every ParserHawk run;
//! repeated table runs then replay cached programs instead of
//! re-synthesizing.  Cached rows report near-zero times — use a fresh or
//! no cache directory when measuring synthesis itself.

pub mod config;
pub mod diff;
pub mod harness;
pub mod pool;
pub mod report;

pub use config::{jobs_from_args, parse_flag, Config};
pub use pool::par_map;

use ph_baseline::{compile_dp, compile_ipu, compile_tofino};
use ph_core::{CacheHook, OptConfig, SynthError, SynthParams, SynthStats, Synthesizer};
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

/// Runs ParserHawk on one case, consulting `cache` when one is given
/// ([`Config::cache`]).
pub fn run_parserhawk(
    spec: &ParserSpec,
    device: &DeviceProfile,
    opts: OptConfig,
    timeout: Duration,
    cache: Option<CacheHook>,
) -> RunResult {
    let t0 = Instant::now();
    let r = Synthesizer::new(device.clone(), opts)
        .with_params(SynthParams {
            timeout: Some(timeout),
            cache,
            ..Default::default()
        })
        .synthesize(spec);
    let time = t0.elapsed();
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
        let ph = run_parserhawk(
            &b.spec,
            &dev,
            OptConfig::all(),
            Duration::from_secs(30),
            None,
        );
        assert!(ph.ok(), "{:?}", ph.failure);
        let bl = baseline_tofino(&b.spec, &dev);
        assert!(bl.ok());
        assert!(ph.entries.unwrap() <= bl.entries.unwrap());
    }
}
