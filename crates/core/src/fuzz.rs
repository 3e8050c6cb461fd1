//! Differential packet-fuzzing oracle — the Fig. 22 simulator check, and
//! the final gate of every synthesis run.
//!
//! Every packet is run through the spec simulator ([`ph_ir::simulate`])
//! and each program under test ([`ph_hw::run_program`]).
//! Parser-equivalence bugs hide in boundary cases (truncation
//! mid-extraction, lookahead windows straddling the end of the packet,
//! varbit length extremes, one transition among dozens) that uniform
//! sampling almost never hits, so packets are generated *grammar-aware*,
//! in the manner of P4Testgen's path-based test generation: the oracle
//! selects paths through the specification's transition graph — one
//! through every transition, then the first depth-first accepting paths,
//! which unroll loops — materializes each into a seed packet by planting
//! the chosen transition patterns' care bits, and derives mutants from
//! every seed:
//!
//! * **flip** — each planted constant bit flipped, so near-miss keys are
//!   exercised;
//! * **truncate** — the packet cut at (and one bit before) every
//!   extraction boundary;
//! * **ctrl-extreme** — every varbit control field forced to all-zeros and
//!   all-ones, driving the extraction length to its 0/max extremes;
//! * **lookahead** — lengths that leave a lookahead window partially past
//!   the end of the input (hardware pads with zeros; the program must
//!   agree);
//! * **extend** — random bits appended past the seed's length.
//!
//! The seeds are served round-robin (every seed's path packet, then every
//! seed's first mutant, ...), so a tight budget still reaches every
//! transition.  A **random** class fills what the budget leaves: full,
//! truncated and extended bitstreams, every third with a spec constant
//! planted at a random offset.
//!
//! [`check_e2e`] is the final gate of `synthesize()`: [`GATE_PACKETS`]
//! packets, the first disagreement ddmin-shrunk to a minimal bitstream and
//! reported as a structured [`Divergence`] (state paths, first differing
//! dictionary field).  The `fuzz_e2e` binary runs [`fuzz`] unbounded and
//! three-way-compares the synthesized program and the baseline
//! `direct_translate` program against the spec.

use ph_bits::{BitString, Rng};
use ph_hw::{run_program, TcamProgram};
use ph_ir::{
    analysis, simulate, varbit_len, FieldKind, KeyPart, NextState, ParseStatus, ParserSpec,
    SimResult, State, StateId,
};

/// Packets the final gate of `synthesize()` compares ([`check_e2e`]).
pub const GATE_PACKETS: usize = 400;

/// Cap on planted-bit flip mutants per seed packet.
const MAX_FLIPS: usize = 64;

/// Cap on depth-first accepting seed paths (the transition cover comes on
/// top of them).
const MAX_PATHS: usize = 64;

/// States on a depth-first seed path; loopy specs unroll up to it.
const MAX_DEPTH: usize = 12;

/// Random packets of an unbounded run (under a packet budget the random
/// class gets a quarter of it, plus whatever the grammar classes leave).
const RANDOM_PACKETS: usize = 64;

/// Spec-side iteration budget (programs get four times as many).
const ITERS: usize = 64;

/// Knobs of a fuzzing run.  The defaults are sized for one benchmark case;
/// `packet_budget` is the overall scale lever.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seed for free-bit filling, random packets and mutant sampling.
    pub seed: u64,
    /// ddmin-shrink divergences before reporting them.
    pub shrink: bool,
    /// Stop after this many divergences have been reported.
    pub max_divergences: usize,
    /// Overall cap on packets compared (0 = unlimited).
    pub packet_budget: usize,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0x9aa5,
            shrink: true,
            max_divergences: 8,
            packet_budget: 0,
        }
    }
}

/// How a spec/program disagreement manifested.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DivergenceKind {
    /// Termination statuses differ.
    Status,
    /// Statuses agree but the output dictionaries differ.
    Dict,
    /// The program exceeded its iteration budget while the spec terminated.
    Loop,
}

impl DivergenceKind {
    fn as_str(self) -> &'static str {
        match self {
            DivergenceKind::Status => "status",
            DivergenceKind::Dict => "dict",
            DivergenceKind::Loop => "loop",
        }
    }
}

/// A confirmed, shrunk spec/program disagreement.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Name of the diverging program (e.g. `"synth"`, `"direct"`).
    pub subject: String,
    /// Generator class that produced the original input.
    pub generator: &'static str,
    /// The (ddmin-minimal when shrinking is on) diverging bitstream.
    pub input: BitString,
    /// What kind of disagreement this is.
    pub kind: DivergenceKind,
    /// Spec termination status on `input`.
    pub spec_status: ParseStatus,
    /// Program termination status on `input`.
    pub impl_status: ParseStatus,
    /// Spec state-id path on `input`.
    pub spec_path: Vec<usize>,
    /// Program state-id path on `input`.
    pub impl_path: Vec<usize>,
    /// First dictionary field whose value differs (Dict divergences).
    pub first_diff_field: Option<String>,
    /// ddmin trials spent minimizing `input`.
    pub shrink_steps: u64,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} diverges ({}) on {}-bit input {} [spec {:?} path {:?}, impl {:?} path {:?}{}]",
            self.subject,
            self.kind.as_str(),
            self.input.len(),
            self.input,
            self.spec_status,
            self.spec_path,
            self.impl_status,
            self.impl_path,
            match &self.first_diff_field {
                Some(fd) => format!(", first diff field {fd}"),
                None => String::new(),
            }
        )
    }
}

ph_obs::stats! {
    /// Aggregate counters of one fuzzing run.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct FuzzStats {
        /// Seed packets, one per seed path.
        seeds: u64 = "seeds",
        /// Packets compared (per program pair).
        packets: u64 = "packets",
        /// Divergences reported.
        divergences: u64 = "divergences",
        /// Packets skipped because the spec hit its iteration budget.
        incomparable: u64 = "incomparable",
        /// Total ddmin trials across all shrunk divergences.
        shrink_steps: u64 = "shrink_steps",
    }
}

/// Result of one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Aggregate counters.
    pub stats: FuzzStats,
    /// Reported divergences (capped at [`FuzzConfig::max_divergences`]).
    pub divergences: Vec<Divergence>,
}

impl FuzzReport {
    /// True when every compared packet agreed.
    pub fn clean(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The first divergence, or the packet counts when there is none.
impl std::fmt::Display for FuzzReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.divergences.first() {
            Some(d) => d.fmt(f),
            None => write!(
                f,
                "{} of {} packets were comparable (the spec hit its iteration \
                 budget on the rest)",
                self.stats.packets - self.stats.incomparable,
                self.stats.packets
            ),
        }
    }
}

// ---------------------------------------------------------------------------
// Grammar-aware seed generation
// ---------------------------------------------------------------------------

/// Where the *last* extraction of a field landed in the packet.
#[derive(Clone, Copy)]
struct DictSrc {
    /// Packet bit position of the extraction's first bit.
    start: usize,
    /// Bits actually taken (may be less than `width` for varbit fields).
    take: usize,
    /// Declared field width (varbit values are left-padded to this).
    width: usize,
}

/// A packet materialized from one seed path, with the provenance the
/// mutant generators need.
#[derive(Clone, Debug)]
pub struct SeedPacket {
    /// The concrete packet.
    pub bits: BitString,
    /// Packet bit positions planted from transition-pattern care bits.
    pub planted: Vec<usize>,
    /// Cursor positions after each completed field extraction.
    pub boundaries: Vec<usize>,
    /// Packet bit ranges `[start, end)` backing varbit control values.
    pub control_ranges: Vec<(usize, usize)>,
    /// Packet lengths that cut a lookahead window part-way.
    pub lookahead_probes: Vec<usize>,
    /// The state-id path the generator followed.
    pub path: Vec<usize>,
}

/// One step of a path: a state plus the transition taken out of it
/// (`None` = the default transition).
type PathStep = (StateId, Option<usize>);

/// The transitions out of `st` as `(choice, target)` pairs: the pattern
/// transitions in order, then the default.
fn choices(st: &State) -> impl DoubleEndedIterator<Item = (Option<usize>, NextState)> + '_ {
    st.transitions
        .iter()
        .enumerate()
        .map(|(i, t)| (Some(i), t.next))
        .chain(std::iter::once((None, st.default)))
}

/// Selects the seed paths of `spec`, each ending in `Accept` or `Reject`.
///
/// First one path through every transition reachable from the start
/// state: the shortest prefix to its state, the transition, then the
/// shortest way to `Accept` (or to `Reject` where no accept is reachable).
/// Then the first [`MAX_PATHS`] depth-first accepting paths of at most
/// [`MAX_DEPTH`] states, in transition order, so that loops are unrolled
/// and branches combined across states.
fn seed_paths(spec: &ParserSpec) -> Vec<Vec<PathStep>> {
    let n = spec.states.len();
    // Shortest prefixes: breadth-first from the start state.
    let mut order = vec![(spec.start, Vec::new())];
    let mut i = 0;
    while let Some((s, prefix)) = order.get(i).cloned() {
        i += 1;
        for (c, next) in choices(spec.state(s)) {
            if let NextState::State(m) = next {
                if order.iter().all(|(x, _)| *x != m) {
                    let mut p = prefix.clone();
                    p.push((s, c));
                    order.push((m, p));
                }
            }
        }
    }
    // Shortest finishes: steps to `Accept`, a reject costing more than any
    // accepting finish; `usize::MAX` where neither is reachable.
    let mut cost = vec![usize::MAX; n];
    let mut finish = vec![(None, NextState::Reject); n];
    let mut changed = true;
    while changed {
        changed = false;
        for (s, st) in spec.states.iter().enumerate() {
            for (c, next) in choices(st) {
                let k = match next {
                    NextState::Accept => 1,
                    NextState::Reject => n + 1,
                    NextState::State(m) => cost[m.0].saturating_add(1),
                };
                if k < cost[s] {
                    (cost[s], finish[s]) = (k, (c, next));
                    changed = true;
                }
            }
        }
    }

    let mut out: Vec<Vec<PathStep>> = Vec::new();
    for (s, prefix) in &order {
        for (c, mut next) in choices(spec.state(*s)) {
            let mut path = prefix.clone();
            path.push((*s, c));
            while let NextState::State(m) = next {
                if cost[m.0] == usize::MAX {
                    break;
                }
                path.push((m, finish[m.0].0));
                next = finish[m.0].1;
            }
            if !matches!(next, NextState::State(_)) && !out.contains(&path) {
                out.push(path);
            }
        }
    }

    let mut accepting = 0;
    let mut stack = vec![(Vec::new(), NextState::State(spec.start))];
    while let Some((path, next)) = stack.pop() {
        match next {
            NextState::State(s) if path.len() < MAX_DEPTH => {
                for (c, n) in choices(spec.state(s)).rev() {
                    let mut p = path.clone();
                    p.push((s, c));
                    stack.push((p, n));
                }
            }
            NextState::Accept if accepting == MAX_PATHS => break,
            NextState::Accept => {
                accepting += 1;
                if !out.contains(&path) {
                    out.push(path);
                }
            }
            _ => {}
        }
    }

    out
}

/// Materializes one path into a concrete packet.
///
/// The walk mirrors the spec simulator: extractions append fresh packet
/// bits at the cursor, and the chosen transition's pattern care bits are
/// planted back into the packet positions its key reads (field slices via
/// the last extraction's location, lookahead bits directly at the cursor).
/// Conflicting constraints overwrite (last plant wins) — the packet is a
/// valid input either way, and the simulators decide its true behaviour.
fn materialize(spec: &ParserSpec, path: &[PathStep], rng: &mut Rng) -> SeedPacket {
    let mut bits: Vec<Option<bool>> = Vec::new();
    let mut dict_src: Vec<Option<DictSrc>> = vec![None; spec.fields.len()];
    let mut pos = 0usize;
    let mut planted = Vec::new();
    let mut boundaries = Vec::new();
    let mut control_ranges = Vec::new();
    let mut lookahead_probes = Vec::new();

    let ensure_len = |bits: &mut Vec<Option<bool>>, len: usize| {
        while bits.len() < len {
            bits.push(None);
        }
    };

    for &(sid, choice) in path {
        let st = spec.state(sid);

        for &fid in &st.extracts {
            let field = spec.field(fid);
            let take = match &field.kind {
                FieldKind::Fixed => field.width,
                FieldKind::Var(v) => {
                    // Resolve the control field's free bits now so the
                    // length is concrete (and mutable by the ctrl-extreme
                    // mutant class later).
                    let ctrl = match dict_src[v.control.0] {
                        Some(src) => {
                            for b in bits.iter_mut().skip(src.start).take(src.take) {
                                if b.is_none() {
                                    *b = Some(rng.gen_bool(0.5));
                                }
                            }
                            control_ranges.push((src.start, src.start + src.take));
                            let mut val = BitString::zeros(src.width - src.take);
                            for b in &bits[src.start..src.start + src.take] {
                                val.push(b.unwrap_or(false));
                            }
                            Some(val)
                        }
                        None => None,
                    };
                    varbit_len(ctrl.as_ref(), v, field.width)
                }
            };
            ensure_len(&mut bits, pos + take);
            dict_src[fid.0] = Some(DictSrc {
                start: pos,
                take,
                width: field.width,
            });
            pos += take;
            boundaries.push(pos);
        }

        // Record lengths that cut this state's lookahead windows part-way.
        for kp in &st.key {
            if let KeyPart::Lookahead { start, end } = *kp {
                lookahead_probes.push(pos + start);
                lookahead_probes.push(pos + end - 1);
            }
        }

        // Plant the chosen transition pattern's care bits.
        if let Some(ti) = choice {
            let pat = &st.transitions[ti].pattern;
            let mut kb = 0usize;
            for kp in &st.key {
                match *kp {
                    KeyPart::Slice { field, start, end } => {
                        for i in start..end {
                            if pat.mask().get(kb) {
                                if let Some(src) = dict_src[field.0] {
                                    let pad = src.width - src.take;
                                    if i >= pad {
                                        let p = src.start + (i - pad);
                                        bits[p] = Some(pat.value().get(kb));
                                        planted.push(p);
                                    }
                                    // Bits in the left-padding read as zero;
                                    // a pattern demanding 1 there simply
                                    // cannot be satisfied — leave it.
                                }
                            }
                            kb += 1;
                        }
                    }
                    KeyPart::Lookahead { start, end } => {
                        for i in start..end {
                            if pat.mask().get(kb) {
                                let p = pos + i;
                                ensure_len(&mut bits, p + 1);
                                bits[p] = Some(pat.value().get(kb));
                                planted.push(p);
                            }
                            kb += 1;
                        }
                    }
                }
            }
        }
    }

    // Fill the remaining free bits randomly.
    let mut packet = BitString::zeros(bits.len());
    for (i, b) in bits.iter().enumerate() {
        packet.set(i, b.unwrap_or_else(|| rng.gen_bool(0.5)));
    }
    planted.sort_unstable();
    planted.dedup();
    boundaries.dedup();
    lookahead_probes.sort_unstable();
    lookahead_probes.dedup();

    SeedPacket {
        bits: packet,
        planted,
        boundaries,
        control_ranges,
        lookahead_probes,
        path: path.iter().map(|&(s, _)| s.0).collect(),
    }
}

/// Generates the grammar-aware seed packets for `spec`: one per seed path.
pub fn seed_packets(spec: &ParserSpec, rng: &mut Rng) -> Vec<SeedPacket> {
    seed_paths(spec)
        .iter()
        .map(|p| materialize(spec, p, rng))
        .collect()
}

/// Derives the mutant packets of one seed, tagged with their generator
/// class.
pub fn mutants(seed: &SeedPacket, rng: &mut Rng) -> Vec<(&'static str, BitString)> {
    mutant_stream(seed, rng).collect()
}

/// [`mutants`], built one packet at a time as the caller pulls them.  The
/// `extend` mutant's random tail is drawn here, so `rng` advances the same
/// however much of the stream is consumed.
fn mutant_stream<'a>(
    seed: &'a SeedPacket,
    rng: &mut Rng,
) -> impl Iterator<Item = (&'static str, BitString)> + 'a {
    let b = &seed.bits;
    let tail: Vec<bool> = (0..16).map(|_| rng.gen_bool(0.5)).collect();
    let path = std::iter::once_with(move || ("path", b.clone()));

    // Flip each planted constant bit (near-miss keys).
    let flips = seed.planted.iter().take(MAX_FLIPS).map(move |&p| {
        let mut m = b.clone();
        m.set(p, !m.get(p));
        ("flip", m)
    });

    // Truncate at (and one bit before) every extraction boundary.
    let truncations = seed.boundaries.iter().flat_map(move |&cut| {
        [Some(cut), cut.checked_sub(1)]
            .into_iter()
            .flatten()
            .filter(move |&c| c <= b.len())
            .map(move |c| ("truncate", b.slice(0, c)))
    });

    // Varbit control extremes: all-zeros (length offset only) and all-ones
    // (clamped to the declared maximum).
    let extremes = seed.control_ranges.iter().flat_map(move |&(s, e)| {
        [false, true].into_iter().map(move |bit| {
            let mut m = b.clone();
            for i in s..e.min(b.len()) {
                m.set(i, bit);
            }
            ("ctrl-extreme", m)
        })
    });

    // Lengths that leave a lookahead window partially past the end.
    let lookaheads = seed
        .lookahead_probes
        .iter()
        .filter(move |&&cut| cut < b.len())
        .map(move |&cut| ("lookahead", b.slice(0, cut)));

    // Random bits appended past the seed's length.
    let extend = std::iter::once_with(move || {
        let mut ext = b.clone();
        for bit in tail {
            ext.push(bit);
        }
        ("extend", ext)
    });

    path.chain(flips)
        .chain(truncations)
        .chain(extremes)
        .chain(lookaheads)
        .chain(extend)
}

// ---------------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------------

/// Outcome of comparing spec and one program on one input.
enum Outcome {
    Agree,
    /// The spec hit its iteration budget; nothing to compare.
    Incomparable,
    Diverged(Box<Divergence>),
}

fn compare_one(
    spec: &ParserSpec,
    subject: &str,
    program: &TcamProgram,
    input: &BitString,
    generator: &'static str,
) -> Outcome {
    let s = simulate(spec, input, ITERS);
    if s.status == ParseStatus::IterationBudget {
        return Outcome::Incomparable;
    }
    let h = run_program(program, &spec.fields, input, ITERS * 4);
    let make = |kind, s: &SimResult, h: &SimResult, first_diff: Option<String>| {
        Outcome::Diverged(Box::new(Divergence {
            subject: subject.to_string(),
            generator,
            input: input.clone(),
            kind,
            spec_status: s.status,
            impl_status: h.status,
            spec_path: s.path.clone(),
            impl_path: h.path.clone(),
            first_diff_field: first_diff,
            shrink_steps: 0,
        }))
    };
    if h.status == ParseStatus::IterationBudget {
        return make(DivergenceKind::Loop, &s, &h, None);
    }
    if s.status != h.status {
        return make(DivergenceKind::Status, &s, &h, None);
    }
    if s.dict != h.dict {
        let first = (0..spec.fields.len())
            .map(ph_ir::FieldId)
            .find(|&f| s.dict.get(f) != h.dict.get(f))
            .map(|f| spec.field(f).name.clone());
        return make(DivergenceKind::Dict, &s, &h, first);
    }
    Outcome::Agree
}

/// True when `input` still makes `program` diverge from `spec` (any kind).
fn still_diverges(spec: &ParserSpec, program: &TcamProgram, input: &BitString) -> bool {
    matches!(
        compare_one(spec, "", program, input, "shrink"),
        Outcome::Diverged(_)
    )
}

/// ddmin-style input minimization: removes complement chunks at doubling
/// granularity while the divergence persists, then zeroes residual one
/// bits to normalize the witness.  Returns the shrunk input; `steps`
/// counts oracle trials.
pub fn ddmin(
    spec: &ParserSpec,
    program: &TcamProgram,
    input: &BitString,
    max_trials: u64,
    steps: &mut u64,
) -> BitString {
    let mut cur = input.clone();
    // Removal and normalization unlock each other (zeroing a varbit control
    // shortens the parse, which makes tail chunks removable; removing bits
    // exposes new one bits to zero), so iterate both to a fixpoint.
    loop {
        let before = cur.clone();

        // Chunk-removal pass at doubling granularity.
        let mut n = 2usize;
        'outer: while cur.len() >= 2 && n <= cur.len() && *steps < max_trials {
            let chunk = cur.len().div_ceil(n);
            let mut start = 0usize;
            while start < cur.len() && *steps < max_trials {
                let end = (start + chunk).min(cur.len());
                let cand = cur.slice(0, start).concat(&cur.slice(end, cur.len()));
                *steps += 1;
                if !cand.is_empty() && still_diverges(spec, program, &cand) {
                    cur = cand;
                    n = n.saturating_sub(1).max(2);
                    continue 'outer;
                }
                start = end;
            }
            if chunk == 1 {
                break;
            }
            n = (2 * n).min(cur.len());
        }

        // Normalization pass: prefer the all-zeros-est witness.
        for i in 0..cur.len() {
            if *steps >= max_trials {
                break;
            }
            if cur.get(i) {
                let mut cand = cur.clone();
                cand.set(i, false);
                *steps += 1;
                if still_diverges(spec, program, &cand) {
                    cur = cand;
                }
            }
        }

        if cur == before || *steps >= max_trials {
            return cur;
        }
    }
}

/// The random class: bitstreams of full length (half of them), truncated
/// (a quarter) and extended by up to 16 bits (a quarter), every third
/// with a spec constant planted at a random offset so that random keys
/// hit transitions too.  The stream depends only on the seed and the spec.
fn random_packets(spec: &ParserSpec, seed: u64) -> impl Iterator<Item = BitString> {
    let mut rng = Rng::seed_from_u64(seed ^ 0xf1622);
    let full = analysis::max_bits_consumed(spec, 24).max(1);
    let constants: Vec<BitString> = spec
        .states
        .iter()
        .flat_map(|st| st.transitions.iter().map(|t| t.pattern.value().clone()))
        .collect();
    (0usize..).map(move |round| {
        let len = match round % 4 {
            0 | 1 => full,
            2 => rng.gen_range(0..=full),
            _ => full + rng.gen_range(0..=16usize),
        };
        let mut input = BitString::zeros(len);
        for i in 0..len {
            input.set(i, rng.gen_bool(0.5));
        }
        if !constants.is_empty() && len > 0 && round % 3 == 0 {
            let c = &constants[rng.gen_range(0..constants.len())];
            if c.len() <= len {
                let off = rng.gen_range(0..=(len - c.len()));
                for i in 0..c.len() {
                    input.set(off + i, c.get(i));
                }
            }
        }
        input
    })
}

/// Runs the differential oracle: the grammar-aware seeds and their mutants
/// round-robin, then the random class, each packet compared across
/// `programs`.  Divergences are shrunk (when configured) and reported
/// structurally.
pub fn fuzz(spec: &ParserSpec, programs: &[(&str, &TcamProgram)], cfg: &FuzzConfig) -> FuzzReport {
    let tracer = ph_obs::current();
    let _span = tracer.span("fuzz.case");
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xf0225eed);
    let mut stats = FuzzStats::default();
    let mut divergences: Vec<Divergence> = Vec::new();

    let seeds = seed_packets(spec, &mut rng);
    stats.seeds = seeds.len() as u64;
    let budget = Some(cfg.packet_budget)
        .filter(|&b| b > 0)
        .unwrap_or(usize::MAX);

    // Runs one input on every program; false once a cap is reached.
    let mut run_input =
        |generator: &'static str, input: &BitString, stats: &mut FuzzStats| -> bool {
            for &(name, program) in programs {
                if divergences.len() >= cfg.max_divergences || stats.packets as usize >= budget {
                    return false;
                }
                stats.packets += 1;
                match compare_one(spec, name, program, input, generator) {
                    Outcome::Agree => {}
                    Outcome::Incomparable => stats.incomparable += 1,
                    Outcome::Diverged(mut d) => {
                        if cfg.shrink {
                            let mut steps = 0u64;
                            let small = ddmin(spec, program, input, 2000, &mut steps);
                            // Re-derive the report on the minimal input so
                            // the paths/statuses describe what is shipped.
                            if let Outcome::Diverged(sd) =
                                compare_one(spec, name, program, &small, generator)
                            {
                                d = sd;
                            }
                            d.shrink_steps = steps;
                            stats.shrink_steps += steps;
                        }
                        stats.divergences += 1;
                        divergences.push(*d);
                    }
                }
            }
            true
        };

    // The random class: a quarter of a budget is reserved for it and it
    // fills whatever the grammar classes leave; unbounded runs get
    // `RANDOM_PACKETS` of it.
    let (reserved, random_rounds) = match cfg.packet_budget {
        0 => (0, RANDOM_PACKETS),
        b => (b / 4, b),
    };

    // Round k runs every seed's k-th packet, so each seed's path packet
    // runs before any seed's second mutant; a mutant is built only when its
    // round comes.
    let grammar_budget = budget - reserved;
    let mut streams: Vec<_> = seeds.iter().map(|s| mutant_stream(s, &mut rng)).collect();
    let mut live = true;
    'grammar: while live {
        live = false;
        for (generator, input) in streams.iter_mut().filter_map(|s| s.next()) {
            live = true;
            if stats.packets as usize >= grammar_budget || !run_input(generator, &input, &mut stats)
            {
                break 'grammar;
            }
        }
    }

    for input in random_packets(spec, cfg.seed).take(random_rounds) {
        if !run_input("random", &input, &mut stats) {
            break;
        }
    }

    stats.emit(&tracer, "fuzz");
    FuzzReport { stats, divergences }
}

/// The final gate of `synthesize()` (at [`GATE_PACKETS`]): runs the
/// oracle on `program` alone with a budget of `packets` and stops at the
/// first divergence.
///
/// # Errors
///
/// The refused run's report: its first divergence, minimized, or — so
/// that a spec which loops on most inputs cannot pass vacuously — none,
/// when fewer than half of the packets were comparable.
pub fn check_e2e(
    spec: &ParserSpec,
    program: &TcamProgram,
    seed: u64,
    packets: usize,
) -> Result<FuzzStats, Box<FuzzReport>> {
    let cfg = FuzzConfig {
        seed,
        max_divergences: 1,
        packet_budget: packets,
        ..FuzzConfig::default()
    };
    let report = fuzz(spec, &[("synth", program)], &cfg);
    let comparable = report.stats.packets - report.stats.incomparable;
    if report.clean() && 2 * comparable >= report.stats.packets {
        return Ok(report.stats);
    }
    Err(Box::new(report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_ir::{Field, FieldId, State, Transition, VarLen};

    /// Spec2 from Fig. 7 plus a varbit tail: start keys on the first bit
    /// of an extracted nibble, then a control+varbit state.
    fn varbit_spec() -> ParserSpec {
        ParserSpec {
            fields: vec![
                Field::fixed("sel", 4),
                Field::fixed("ctl", 3),
                Field {
                    name: "opts".into(),
                    width: 8,
                    kind: FieldKind::Var(VarLen {
                        control: FieldId(1),
                        multiplier: 2,
                        offset: 0,
                    }),
                },
            ],
            states: vec![
                State {
                    name: "start".into(),
                    extracts: vec![FieldId(0)],
                    key: vec![KeyPart::Slice {
                        field: FieldId(0),
                        start: 0,
                        end: 2,
                    }],
                    transitions: vec![Transition {
                        pattern: ph_bits::Ternary::parse("10").unwrap(),
                        next: NextState::State(StateId(1)),
                    }],
                    default: NextState::Accept,
                },
                State {
                    name: "opts".into(),
                    extracts: vec![FieldId(1), FieldId(2)],
                    key: vec![],
                    transitions: vec![],
                    default: NextState::Accept,
                },
            ],
            start: StateId(0),
        }
    }

    #[test]
    fn seed_paths_cover_both_branches() {
        let spec = varbit_spec();
        let paths = seed_paths(&spec);
        // start->opts->accept and start->default-accept.
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn seeds_satisfy_their_planted_patterns() {
        let spec = varbit_spec();
        let mut rng = Rng::seed_from_u64(7);
        let seeds = seed_packets(&spec, &mut rng);
        assert_eq!(seeds.len(), 2);
        // The through-path seed must actually reach the second state.
        let deep = seeds
            .iter()
            .find(|s| s.path == vec![0, 1])
            .expect("deep path seed");
        let r = simulate(&spec, &deep.bits, 16);
        assert_eq!(r.status, ParseStatus::Accept);
        assert_eq!(r.path, vec![0, 1]);
        assert!(r.dict.get(FieldId(2)).is_some());
        // Its control range was recorded for the extreme mutants.
        assert_eq!(deep.control_ranges.len(), 1);
        assert!(!deep.boundaries.is_empty());
    }

    #[test]
    fn mutant_classes_present() {
        let spec = varbit_spec();
        let mut rng = Rng::seed_from_u64(7);
        let seeds = seed_packets(&spec, &mut rng);
        let deep = seeds.iter().find(|s| s.path == vec![0, 1]).unwrap();
        let ms = mutants(deep, &mut rng);
        for class in ["path", "flip", "truncate", "ctrl-extreme", "extend"] {
            assert!(ms.iter().any(|(g, _)| *g == class), "missing {class}");
        }
        // The ctrl-extreme all-ones mutant drives the varbit to its clamp.
        let ones = ms
            .iter()
            .filter(|(g, _)| *g == "ctrl-extreme")
            .map(|(_, m)| simulate(&spec, m, 16))
            .any(|r| r.dict.get(FieldId(1)).is_some_and(|c| c.to_u64() == 0b111));
        assert!(ones, "all-ones control extreme not generated");
    }

    #[test]
    fn ddmin_minimizes_a_divergence() {
        use ph_baseline::translate::direct_translate;
        use ph_hw::DeviceProfile;
        let spec = varbit_spec();
        let mut prog = direct_translate(&spec, &DeviceProfile::tofino());
        // Corrupt: the "10" entry now rejects.
        for st in &mut prog.states {
            for e in &mut st.entries {
                if e.pattern.to_string() == "10" {
                    e.next = ph_hw::HwNext::Reject;
                }
            }
        }
        let report = fuzz(&spec, &[("direct", &prog)], &FuzzConfig::default());
        assert!(!report.clean());
        let d = &report.divergences[0];
        // Minimal witness: `sel = 10**` plus a zero `ctl` (so the varbit
        // takes nothing and both sides finish extraction) — 7 bits.  On
        // anything shorter both sides run out of input and agree.
        assert_eq!(d.input.to_string(), "1000000", "not minimal: {}", d.input);
        assert!(d.shrink_steps > 0);
        assert_eq!(d.kind, DivergenceKind::Status);
        assert!(!d.spec_path.is_empty());
        // Report reproduces.
        assert!(still_diverges(&spec, &prog, &d.input));
    }

    #[test]
    fn clean_program_fuzzes_clean() {
        use ph_baseline::translate::direct_translate;
        use ph_hw::DeviceProfile;
        let spec = varbit_spec();
        let prog = direct_translate(&spec, &DeviceProfile::tofino());
        let report = fuzz(&spec, &[("direct", &prog)], &FuzzConfig::default());
        assert!(report.clean(), "{:?}", report.divergences);
        assert!(report.stats.packets > 10);
    }

    /// Fig. 7's two-state spec: `ty == 7` parses `a_t`, anything else
    /// accepts.
    fn two_state_spec() -> ParserSpec {
        ph_p4f::parse_parser(
            r#"
            header h_t { ty : 4; }
            header a_t { v : 8; }
            parser {
                state start {
                    extract(h_t);
                    transition select(h_t.ty) { 7 : pa; default : accept; }
                }
                state pa { extract(a_t); transition accept; }
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn correct_translation_passes() {
        use ph_baseline::translate::direct_translate;
        use ph_hw::DeviceProfile;
        let spec = two_state_spec();
        let prog = direct_translate(&spec, &DeviceProfile::tofino());
        let stats = check_e2e(&spec, &prog, 1, 500).unwrap();
        assert_eq!(stats.packets, 500, "the gate spends its whole budget");
    }

    #[test]
    fn looping_spec_does_not_pass_vacuously() {
        use ph_baseline::translate::direct_translate;
        use ph_hw::DeviceProfile;
        // A spec that loops without consuming input hits the iteration
        // budget on every packet; every packet is incomparable, so the
        // gate must refuse instead of passing.
        let spec = ParserSpec {
            fields: vec![Field::fixed("h_t.ty", 4)],
            states: vec![State {
                name: "start".into(),
                extracts: vec![],
                key: vec![],
                transitions: vec![],
                default: NextState::State(StateId(0)),
            }],
            start: StateId(0),
        };
        let prog = direct_translate(&spec, &DeviceProfile::tofino());
        let err = check_e2e(&spec, &prog, 1, 100).unwrap_err();
        assert!(err.clean());
        assert_eq!(err.stats.packets, 100);
        assert!(err.to_string().contains("comparable"), "{err}");
    }

    #[test]
    fn broken_program_caught() {
        use ph_baseline::translate::direct_translate;
        use ph_hw::DeviceProfile;
        let spec = two_state_spec();
        let mut prog = direct_translate(&spec, &DeviceProfile::tofino());
        // Corrupt: flip the rule's target to reject.
        for st in &mut prog.states {
            for e in &mut st.entries {
                if e.pattern.to_string() == "0111" {
                    e.next = ph_hw::HwNext::Reject;
                }
            }
        }
        let err = check_e2e(&spec, &prog, 1, 500).unwrap_err();
        assert!(!err.clean(), "{err}");
    }
}
