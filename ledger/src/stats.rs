//! Order statistics, the per-operation record, and the end-to-end metrics
//! every workload reports.

use crate::gen::{Device, Pair};
use ph_core::SynthStats;

/// Quantile `q` (0..=1) by linear interpolation between order statistics.
/// Returns 0 for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median (0 for an empty sample).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Geometric mean of positive values (0 for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.max(1e-9).ln()).sum::<f64>() / values.len() as f64).exp()
}

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, unrounded.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Builds a metric list in declaration order.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends one metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
}

/// What a timed operation was.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Class {
    /// A direct `Synthesizer::synthesize` call.
    Compile,
    /// A service request that ran synthesis (first request for its key).
    Miss,
    /// A service request answered from the result cache.
    Hit,
    /// A service request that attached to an identical in-flight job.
    Dedup,
}

/// One timed operation of a workload.
#[derive(Clone, Debug)]
pub struct Op {
    /// Index into the workload's pair list.
    pub pair: usize,
    /// Which compile this stands for: the pair for direct compiles, the
    /// cache key for service requests (rewrite rows can share one).
    pub key: usize,
    /// Wall time of the operation alone (checks excluded).
    pub secs: f64,
    /// Peak heap beyond the heap live at its start, in MB (compiles and
    /// service misses; 0 otherwise).
    pub heap_mb: f64,
    /// Kind of operation.
    pub class: Class,
    /// Whether it produced a program.
    pub ok: bool,
    /// TCAM entries of the program (0 when not ok).
    pub entries: usize,
    /// Pipeline stages of the program (0 when not ok).
    pub stages: usize,
    /// Synthesis statistics, for compiles and service misses.
    pub stats: Option<SynthStats>,
    /// Whether the operation ran under the benchmark's tracer.
    pub traced: bool,
}

/// Medians of `f` over the ops `keep` selects, grouped by `group`
/// (ascending group order; groups without ops are skipped).
pub fn medians_by(
    ops: &[Op],
    group: fn(&Op) -> usize,
    keep: impl Fn(&Op) -> bool,
    f: impl Fn(&Op) -> f64,
) -> Vec<(usize, f64)> {
    let mut groups: Vec<usize> = ops.iter().filter(|o| keep(o)).map(group).collect();
    groups.sort_unstable();
    groups.dedup();
    groups
        .into_iter()
        .map(|g| {
            let v: Vec<f64> = ops
                .iter()
                .filter(|o| group(o) == g && keep(o))
                .map(&f)
                .collect();
            (g, median(&v))
        })
        .collect()
}

/// Each compile's median of `f` over the successful compiles (or service
/// misses) that `keep` selects, one value per compile key.
pub fn compile_medians(ops: &[Op], keep: impl Fn(&Op) -> bool, f: fn(&Op) -> f64) -> Vec<f64> {
    let is_compile = |o: &Op| o.ok && matches!(o.class, Class::Compile | Class::Miss) && keep(o);
    medians_by(ops, |o| o.key, is_compile, f)
        .into_iter()
        .map(|(_, m)| m)
        .collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(pairs: &[Pair], ops: &[Op], setup_secs: f64) -> Metrics {
    let times = compile_medians(ops, |_| true, |o| o.secs);
    let heaps: Vec<f64> = compile_medians(ops, |_| true, |o| o.heap_mb)
        .into_iter()
        .map(|mb| mb.max(0.01))
        .collect();
    let is_latency = |o: &Op| o.ok && matches!(o.class, Class::Compile | Class::Hit);
    let latency_ms: Vec<f64> = ops
        .iter()
        .filter(|o| is_latency(o))
        .map(|o| o.secs * 1e3)
        .collect();
    let pair_latency_ms: Vec<f64> = medians_by(ops, |o| o.pair, is_latency, |o| o.secs * 1e3)
        .into_iter()
        .map(|(_, m)| m)
        .collect();
    let size_sum = |device: Device, size: fn(&Op) -> usize| -> f64 {
        medians_by(ops, |o| o.pair, |o| o.ok, |o| size(o) as f64)
            .iter()
            .filter(|(p, _)| pairs[*p].device == device)
            .map(|(_, m)| m)
            .sum()
    };
    let ok = ops.iter().filter(|o| o.ok).count();

    let mut m = Metrics::default();
    m.push("setup_s", setup_secs, "s");
    m.push("compile_s_total", times.iter().sum(), "s");
    m.push("compile_s_geomean", geomean(&times), "s");
    m.push(
        "latency_ms_mean",
        latency_ms.iter().sum::<f64>() / latency_ms.len().max(1) as f64,
        "ms",
    );
    m.push("latency_ms_tail", quantile(&pair_latency_ms, 0.9), "ms");
    m.push("ok_frac", ok as f64 / ops.len().max(1) as f64, "ratio");
    m.push(
        "tcam_entries_sum",
        size_sum(Device::Tofino, |o| o.entries),
        "entries",
    );
    m.push(
        "ipu_stages_sum",
        size_sum(Device::Ipu, |o| o.stages),
        "stages",
    );
    m.push("compile_heap_mb_geomean", geomean(&heaps), "MB");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
