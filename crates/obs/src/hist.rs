//! Log-bucketed mergeable latency histograms (HDR-style).
//!
//! A [`Histogram`] counts `u64` samples in buckets whose width grows
//! geometrically: values below [`SUBBUCKETS`] get one bucket each (exact),
//! and every further power-of-two range is split into [`SUBBUCKETS`]
//! equal sub-buckets, so the relative quantile error is bounded by
//! `1/SUBBUCKETS` (~3.1%) at every magnitude up to `u64::MAX`.  The
//! bucket layout is a pure function of the value, which makes histograms
//! *mergeable*: summing bucket counts elementwise is exact aggregation,
//! independent of merge order — the property that lets per-branch /
//! per-case histograms roll up into one distribution
//! ([`Histogram::merge`], tested for associativity).
//!
//! The span profiler ([`crate::profile::Profiler`]) folds every span's
//! duration into a histogram named after the span, and the samples of
//! [`crate::Tracer::record`] into one per record name.  The same type
//! backs the per-run query-latency histograms in `SynthStats`.

/// Sub-buckets per power-of-two range; also the size of the exact region.
/// Must be a power of two.
pub const SUBBUCKETS: u64 = 32;

const SUB_BITS: u32 = SUBBUCKETS.trailing_zeros();

/// Bucket index for a value.  Total index space for `u64` is
/// `(64 - SUB_BITS + 1) * SUBBUCKETS`, about 1.9k buckets.
fn bucket_index(v: u64) -> usize {
    if v < SUBBUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        // High SUB_BITS+1 bits of v, in [SUBBUCKETS, 2*SUBBUCKETS).
        let top = (v >> shift) as usize;
        ((shift as usize) + 1) * SUBBUCKETS as usize + (top - SUBBUCKETS as usize)
    }
}

/// Lowest value mapping to bucket `i` (the bucket's representative — a
/// conservative lower bound, exact for the first two power-of-two ranges).
fn bucket_low(i: usize) -> u64 {
    let sub = SUBBUCKETS as usize;
    if i < 2 * sub {
        i as u64
    } else {
        let shift = (i / sub - 1) as u32;
        ((i % sub) as u64 + SUBBUCKETS) << shift
    }
}

/// A mergeable log-bucketed histogram of `u64` samples.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Bucket counts, indexed by [`bucket_index`]; trailing zero buckets
    /// are not stored (small distributions stay small).
    buckets: Vec<u64>,
    count: u64,
    /// Exact sum (`u128`: `u64::MAX` samples must not overflow it).
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if self.buckets.len() <= i {
            self.buckets.resize(i + 1, 0);
        }
        self.buckets[i] += 1;
        self.min = if self.count == 0 { v } else { self.min.min(v) };
        self.max = self.max.max(v);
        self.count += 1;
        self.sum += v as u128;
    }

    /// Adds every sample of `other` into `self` (exact: bucket counts sum
    /// elementwise, so merging is associative and commutative).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.min = if self.count == 0 {
            other.min
        } else {
            self.min.min(other.min)
        };
        self.max = self.max.max(other.max);
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) with relative error bounded by
    /// `1/SUBBUCKETS`, clamped to the observed `[min, max]`.  Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // Rank of the q-quantile sample, 1-based, clamped into range.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The extremes are tracked exactly; return them rather than a
        // bucket bound.
        if rank == self.count {
            return self.max;
        }
        if rank == 1 {
            return self.min;
        }
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_low(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Convenience: the median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// The summary as a JSON object (`count`, `min`, `max`, `mean`,
    /// `p50`, `p90`, `p99`) — the shape embedded in `SynthStats::to_json`
    /// payloads and `hist` trace events.
    pub fn summary_json(&self) -> crate::Json {
        crate::Json::obj()
            .with("count", self.count)
            .with("min", self.min())
            .with("max", self.max())
            .with("mean", self.mean())
            .with("p50", self.p50())
            .with("p90", self.p90())
            .with("p99", self.p99())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_layout_is_continuous_and_monotone() {
        // Every value maps to a bucket whose low bound is <= the value,
        // and indices never decrease as values grow.
        let mut last = 0usize;
        for &v in &[
            0u64,
            1,
            2,
            SUBBUCKETS - 1,
            SUBBUCKETS,
            SUBBUCKETS + 1,
            2 * SUBBUCKETS - 1,
            2 * SUBBUCKETS,
            100,
            1000,
            1 << 20,
            (1 << 20) + 12345,
            u64::MAX / 2,
            u64::MAX,
        ] {
            let i = bucket_index(v);
            assert!(i >= last, "index not monotone at {v}");
            assert!(bucket_low(i) <= v, "low bound above value at {v}");
            last = i;
        }
        // The exact region really is exact.
        for v in 0..2 * SUBBUCKETS {
            assert_eq!(bucket_low(bucket_index(v)), v);
        }
    }

    #[test]
    fn merge_is_associative_and_matches_bulk_recording() {
        let mut rng = ph_bits_like_rng(0xfeed);
        let samples: Vec<Vec<u64>> = (0..3)
            .map(|_| (0..500).map(|_| rng() % (1 << 40)).collect())
            .collect();
        let hist_of = |xss: &[&[u64]]| {
            let mut h = Histogram::new();
            for xs in xss {
                for &x in *xs {
                    h.record(x);
                }
            }
            h
        };
        let [a, b, c] = [&samples[0][..], &samples[1][..], &samples[2][..]];
        // (a + b) + c
        let mut left = hist_of(&[a]);
        let hb = hist_of(&[b]);
        let hc = hist_of(&[c]);
        left.merge(&hb);
        left.merge(&hc);
        // a + (b + c)
        let mut right_tail = hist_of(&[b]);
        right_tail.merge(&hc);
        let mut right = hist_of(&[a]);
        right.merge(&right_tail);
        assert_eq!(left, right, "merge must be associative");
        // Both equal recording everything into one histogram.
        assert_eq!(left, hist_of(&[a, b, c]));
        // Merging an empty histogram is the identity.
        let mut with_empty = left.clone();
        with_empty.merge(&Histogram::new());
        assert_eq!(with_empty, left);
    }

    #[test]
    fn quantile_error_is_bounded_across_bucket_boundaries() {
        // Deterministic samples straddling many power-of-two boundaries.
        let mut rng = ph_bits_like_rng(0x5eed);
        let mut samples: Vec<u64> = (0..4000).map(|_| rng() % (1 << 30)).collect();
        // Pile extra mass right at boundaries where bucket width jumps.
        for k in 6..24 {
            samples.push((1u64 << k) - 1);
            samples.push(1u64 << k);
            samples.push((1u64 << k) + 1);
        }
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for &q in &[0.01, 0.25, 0.50, 0.90, 0.99, 1.0] {
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let est = h.quantile(q);
            // The estimate is a bucket lower bound: never above the exact
            // value, and below it by at most one bucket width
            // (relative error <= 1/SUBBUCKETS).
            assert!(est <= exact, "q={q}: estimate {est} above exact {exact}");
            let err = (exact - est) as f64;
            let bound = (exact as f64) / SUBBUCKETS as f64 + 1.0;
            assert!(
                err <= bound,
                "q={q}: error {err} exceeds bound {bound} (exact {exact}, est {est})"
            );
        }
    }

    #[test]
    fn extremes_zero_and_u64_max() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.p50(), 0);
        // The top quantile lands in u64::MAX's bucket and clamps to max.
        assert_eq!(h.quantile(1.0), u64::MAX);
        // Sum is exact even with u64::MAX samples (u128 accumulator).
        h.record(u64::MAX);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - (u64::MAX as f64 / 2.0)).abs() / h.mean() < 1e-9);
        // Empty histogram is all zeros.
        let e = Histogram::new();
        assert_eq!((e.count(), e.min(), e.max(), e.p50()), (0, 0, 0, 0));
        assert_eq!(e.quantile(0.99), 0);
    }

    #[test]
    fn summary_json_has_all_keys() {
        let mut h = Histogram::new();
        for v in 1..=100 {
            h.record(v);
        }
        let j = h.summary_json();
        for key in ["count", "min", "max", "mean", "p50", "p90", "p99"] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        assert_eq!(j.get("count").unwrap().as_i64(), Some(100));
        assert_eq!(j.get("min").unwrap().as_i64(), Some(1));
        assert_eq!(j.get("max").unwrap().as_i64(), Some(100));
        // 1..=100 is inside the exact region up to 63; p50 = 50 exactly.
        assert_eq!(j.get("p50").unwrap().as_i64(), Some(50));
    }

    /// SplitMix64 (matches `ph_bits::Rng`'s generator; obs cannot depend
    /// on ph_bits without creating a cycle).
    fn ph_bits_like_rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
    }
}
