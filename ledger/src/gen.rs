//! Seeded input generation.
//!
//! The seed is the only source of variation between runs.  It does three
//! things:
//!
//! * **Alpha-variants.**  Every compile and every request gets a fresh
//!   rename of its registry spec: fields and states get seeded names and
//!   their declarations are permuted.  The variant is the same parser, so
//!   `ph_ir::canon` maps it back to the base spec, but the compiler sees
//!   new field and state numbering.
//! * **Pass order.**  Each pass of a compile workload visits its pairs in a
//!   seeded order.
//! * **The `svc-mixed` stream.**  Which pair each request asks for, where
//!   each pair is first requested, and which hits are sampled for the
//!   output check.

use ph_benchmarks::Case;
use ph_bits::Rng;
use ph_hw::DeviceProfile;
use ph_ir::{FieldId, FieldKind, KeyPart, NextState, ParserSpec, StateId};

/// Target device of one compile.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Device {
    /// The single-table, loop-capable Tofino model (output size: entries).
    Tofino,
    /// The pipelined IPU model (output size: stages).
    Ipu,
}

impl Device {
    /// The device model.
    pub fn profile(self) -> DeviceProfile {
        match self {
            Device::Tofino => DeviceProfile::tofino(),
            Device::Ipu => DeviceProfile::ipu(),
        }
    }

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            Device::Tofino => "tofino",
            Device::Ipu => "ipu",
        }
    }
}

/// One (registry case, device) pair.
#[derive(Clone, Debug)]
pub struct Pair {
    /// Registry row name.
    pub case: String,
    /// The registry spec the variants are drawn from.
    pub base: ParserSpec,
    /// Target device.
    pub device: Device,
}

impl Pair {
    /// `case/device`, the pair's label in result files.
    pub fn label(&self) -> String {
        format!("{}/{}", self.case, self.device.name())
    }
}

/// Resolves `(case name, devices)` rows against the Table 3 registry.
///
/// # Panics
///
/// Panics when a name is not in the registry: the workload lists are
/// constants, so a miss is a bug in this benchmark.
pub fn resolve(registry: &[Case], rows: &[(&str, &[Device])]) -> Vec<Pair> {
    rows.iter()
        .flat_map(|&(name, devices)| {
            let case = registry
                .iter()
                .find(|c| c.name == name)
                .unwrap_or_else(|| panic!("registry has no case {name:?}"));
            devices.iter().map(move |&device| Pair {
                case: case.name.clone(),
                base: case.spec.clone(),
                device,
            })
        })
        .collect()
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.gen_range(0..=i));
    }
    p
}

/// A seeded rename of `spec`: field and state declarations are permuted and
/// every name is replaced.  Transition order, widths and patterns are kept,
/// so the result is the same parser under new numbering.
pub fn alpha_variant(spec: &ParserSpec, rng: &mut Rng) -> ParserSpec {
    let fperm = permutation(spec.fields.len(), rng);
    let sperm = permutation(spec.states.len(), rng);
    let tag = rng.next_u64() & 0xffff;
    let field = |f: FieldId| FieldId(fperm[f.0]);
    let next = |n: NextState| match n {
        NextState::State(s) => NextState::State(StateId(sperm[s.0])),
        other => other,
    };

    let mut fields = spec.fields.clone();
    for (i, f) in spec.fields.iter().enumerate() {
        let mut f = f.clone();
        f.name = format!("h{tag:04x}.f{}", fperm[i]);
        if let FieldKind::Var(v) = &mut f.kind {
            v.control = field(v.control);
        }
        fields[fperm[i]] = f;
    }
    let mut states = spec.states.clone();
    for (i, st) in spec.states.iter().enumerate() {
        let mut st = st.clone();
        st.name = format!("s{tag:04x}_{}", sperm[i]);
        for e in &mut st.extracts {
            *e = field(*e);
        }
        for kp in &mut st.key {
            if let KeyPart::Slice { field: f, .. } = kp {
                *f = field(*f);
            }
        }
        for t in &mut st.transitions {
            t.next = next(t.next);
        }
        st.default = next(st.default);
        states[sperm[i]] = st;
    }
    ParserSpec {
        fields,
        states,
        start: StateId(sperm[spec.start.0]),
    }
}

/// The generator for one stream of inputs: `seed` and a stream number
/// (the pass index, or `u64::MAX - epoch` for a request stream) give
/// independent, reproducible draws.
fn stream_rng(seed: u64, stream: u64) -> Rng {
    let mut mix = Rng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    Rng::seed_from_u64(mix.next_u64())
}

/// One compile of a pass: which pair, and the variant spec to submit.
pub struct Job {
    /// Index into the workload's pair list.
    pub pair: usize,
    /// The spec actually compiled and checked.
    pub spec: ParserSpec,
}

/// Pass `pass` of a compile workload: every pair once, in seeded order,
/// each with a fresh variant.
pub fn pass_jobs(pairs: &[Pair], seed: u64, pass: u64) -> Vec<Job> {
    let mut rng = stream_rng(seed, pass);
    permutation(pairs.len(), &mut rng)
        .into_iter()
        .map(|pair| Job {
            pair,
            spec: alpha_variant(&pairs[pair].base, &mut rng),
        })
        .collect()
}

/// One request of the `svc-mixed` stream.
pub struct Request {
    /// Index into the workload's pair list.
    pub pair: usize,
    /// The spec actually submitted and checked.
    pub spec: ParserSpec,
    /// Whether this request's reply joins the output check when it is a
    /// cache hit (misses are always checked).
    pub sampled: bool,
}

/// Share of cache hits whose replies are checked after the timed phase.
pub const HIT_SAMPLE_RATE: f64 = 0.1;

/// The endless, seeded `svc-mixed` request stream.
///
/// Each pair is first requested at its own seeded position inside the
/// first `window` requests; until then it is never drawn.  Every other
/// request picks uniformly among the pairs already released.  So the first
/// requests, which carry the cache misses, are spread among hits.
pub struct RequestStream {
    pairs: Vec<ParserSpec>,
    release_at: Vec<Option<usize>>,
    released: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl RequestStream {
    /// Epoch `epoch`'s stream over `pairs`, whose first requests fall in
    /// `0..window`.
    ///
    /// # Panics
    ///
    /// Panics when `window` cannot hold one first request per pair.
    pub fn new(pairs: &[Pair], seed: u64, epoch: u64, window: usize) -> RequestStream {
        assert!(window >= pairs.len(), "release window too small");
        let mut rng = stream_rng(seed, u64::MAX - epoch);
        // Position 0 must release a pair so the first draw has one.
        let mut slots: Vec<usize> = permutation(window - 1, &mut rng)
            .into_iter()
            .map(|p| p + 1)
            .take(pairs.len() - 1)
            .collect();
        slots.push(0);
        let mut release_at = vec![None; window];
        for (pair, slot) in permutation(pairs.len(), &mut rng).into_iter().zip(slots) {
            release_at[slot] = Some(pair);
        }
        RequestStream {
            pairs: pairs.iter().map(|p| p.base.clone()).collect(),
            release_at,
            released: Vec::new(),
            next: 0,
            rng,
        }
    }

    /// Index of the last first request; the timed phase runs at least
    /// this far so every pair is requested.
    pub fn last_release(&self) -> usize {
        self.release_at
            .iter()
            .rposition(Option::is_some)
            .unwrap_or(0)
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let i = self.next;
        self.next += 1;
        let pair = match self.release_at.get(i).copied().flatten() {
            Some(p) => {
                self.released.push(p);
                p
            }
            None => self.released[self.rng.gen_range(0..self.released.len())],
        };
        let spec = alpha_variant(&self.pairs[pair], &mut self.rng);
        let sampled = self.rng.gen_bool(HIT_SAMPLE_RATE);
        Some(Request {
            pair,
            spec,
            sampled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_ir::canon::{canonicalize, spec_fingerprint_text};

    fn fingerprint(spec: &ParserSpec) -> String {
        spec_fingerprint_text(&canonicalize(spec).spec)
    }

    fn all_pairs() -> Vec<Pair> {
        let registry = ph_benchmarks::registry();
        let rows: Vec<(&str, &[Device])> = registry
            .iter()
            .map(|c| (c.name.as_str(), &[Device::Tofino][..]))
            .collect();
        resolve(&registry, &rows)
    }

    #[test]
    fn same_seed_gives_identical_inputs() {
        let pairs = all_pairs();
        for pass in 0..3 {
            let a = pass_jobs(&pairs, 7, pass);
            let b = pass_jobs(&pairs, 7, pass);
            assert!(a
                .iter()
                .zip(&b)
                .all(|(x, y)| x.pair == y.pair && x.spec == y.spec));
        }
        let a: Vec<_> = RequestStream::new(&pairs, 7, 0, 64).take(200).collect();
        let b: Vec<_> = RequestStream::new(&pairs, 7, 0, 64).take(200).collect();
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| { x.pair == y.pair && x.spec == y.spec && x.sampled == y.sampled }));
    }

    #[test]
    fn variants_validate_and_canonicalize_to_their_base() {
        let pairs = all_pairs();
        for seed in [1, 2, 3] {
            for job in pass_jobs(&pairs, seed, 0) {
                let base = &pairs[job.pair].base;
                assert_eq!(job.spec.validate(), Ok(()), "{}", pairs[job.pair].case);
                assert_eq!(fingerprint(&job.spec), fingerprint(base));
            }
            for req in RequestStream::new(&pairs, seed, 0, 64).take(100) {
                assert_eq!(req.spec.validate(), Ok(()));
                assert_eq!(fingerprint(&req.spec), fingerprint(&pairs[req.pair].base));
            }
        }
    }

    #[test]
    fn seeds_one_and_two_differ() {
        let pairs = all_pairs();
        let a = pass_jobs(&pairs, 1, 0);
        let b = pass_jobs(&pairs, 2, 0);
        assert!(a.iter().map(|j| j.pair).ne(b.iter().map(|j| j.pair)));
        assert!(a.iter().zip(&b).any(|(x, y)| x.spec != y.spec));
        let sa: Vec<usize> = RequestStream::new(&pairs, 1, 0, 64)
            .take(100)
            .map(|r| r.pair)
            .collect();
        let sb: Vec<usize> = RequestStream::new(&pairs, 2, 0, 64)
            .take(100)
            .map(|r| r.pair)
            .collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn every_pair_is_first_requested_inside_the_window() {
        let pairs = all_pairs();
        let stream = RequestStream::new(&pairs, 5, 0, 64);
        let last = stream.last_release();
        assert!(last < 64);
        let seen: std::collections::BTreeSet<usize> =
            stream.take(last + 1).map(|r| r.pair).collect();
        assert_eq!(seen.len(), pairs.len());
    }
}
