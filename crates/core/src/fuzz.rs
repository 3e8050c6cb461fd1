//! Differential packet-fuzzing oracle — the Fig. 22 check grown into a
//! subsystem.
//!
//! [`check_program_against_spec`](crate::validate) samples uniform random
//! bitstreams; parser-equivalence bugs hide exactly in the boundary cases
//! (truncation mid-extraction, lookahead windows straddling the end of the
//! packet, varbit length extremes) that uniform sampling almost never
//! hits.  This module generates packets *grammar-aware*: it walks the
//! specification's transition graph, materializes one packet per accepting
//! path by planting each chosen transition pattern's care bits concretely,
//! and then derives mutants from every seed:
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
//! * **extend** — random bits appended past the accepting length;
//! * **random** — plain uniform bitstreams, kept as a baseline class.
//!
//! Every packet is run through the spec simulator ([`ph_ir::simulate`])
//! and each program under test ([`ph_hw::run_program`]); the `fuzz_e2e`
//! binary three-way-compares the synthesized program and the baseline
//! `direct_translate` program against the spec.  A disagreement is
//! ddmin-shrunk to a minimal bitstream and reported as a structured
//! [`Divergence`] (state paths, first differing dictionary field,
//! machine-readable via [`Divergence::to_json`]).
//!
//! [`SynthParams::e2e_samples`](crate::SynthParams) runs this oracle as a
//! post-verification gate inside `synthesize()` itself.

use ph_bits::{BitString, Rng};
use ph_hw::{run_program, TcamProgram};
use ph_ir::{
    analysis, simulate, varbit_len, FieldKind, KeyPart, NextState, ParseStatus, ParserSpec,
    SimResult, StateId,
};
use ph_obs::Json;

/// Knobs of a fuzzing run.  The defaults are sized for one benchmark case;
/// `packet_budget` is the overall scale lever.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Seed for free-bit filling, random packets and mutant sampling.
    pub seed: u64,
    /// Cap on accepting paths materialized into seed packets.
    pub max_paths: usize,
    /// Cap on planted-bit flip mutants per seed packet.
    pub max_flips: usize,
    /// Uniform random packets appended after the grammar-aware classes.
    pub random_samples: usize,
    /// Spec-side iteration budget (programs get four times as many).
    pub iters: usize,
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
            max_paths: 64,
            max_flips: 64,
            random_samples: 64,
            iters: 64,
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

impl Divergence {
    /// The divergence as a JSON object (the `results/fuzz_e2e.json` and
    /// trace payload; `check_schema` validates this shape).
    pub fn to_json(&self) -> Json {
        let path_json = |p: &[usize]| Json::Arr(p.iter().map(|&s| Json::from(s as u64)).collect());
        Json::obj()
            .with("subject", self.subject.as_str())
            .with("generator", self.generator)
            .with("input", self.input.to_string())
            .with("input_bits", self.input.len())
            .with("kind", self.kind.as_str())
            .with("spec_status", format!("{:?}", self.spec_status).as_str())
            .with("impl_status", format!("{:?}", self.impl_status).as_str())
            .with("spec_path", path_json(&self.spec_path))
            .with("impl_path", path_json(&self.impl_path))
            .with(
                "first_diff_field",
                match &self.first_diff_field {
                    Some(f) => Json::from(f.as_str()),
                    None => Json::Null,
                },
            )
            .with("shrink_steps", self.shrink_steps)
    }
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
        /// Seed packets materialized from accepting paths.
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

/// A packet materialized from one accepting path, with the provenance the
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

/// One step of an accepting path: a state plus the transition taken out of
/// it (`None` = the default transition).
type PathStep = (StateId, Option<usize>);

/// Enumerates paths through the transition graph that end in `Accept`,
/// depth-bounded by `max_depth` states and capped at `cap` paths.  Loopy
/// specs contribute their unrollings up to the depth bound.
fn accepting_paths(spec: &ParserSpec, max_depth: usize, cap: usize) -> Vec<Vec<PathStep>> {
    let mut out: Vec<Vec<PathStep>> = Vec::new();
    let mut prefix: Vec<PathStep> = Vec::new();

    fn visit(
        spec: &ParserSpec,
        s: StateId,
        prefix: &mut Vec<PathStep>,
        out: &mut Vec<Vec<PathStep>>,
        max_depth: usize,
        cap: usize,
    ) {
        if out.len() >= cap || prefix.len() >= max_depth {
            return;
        }
        let st = spec.state(s);
        let choices = st
            .transitions
            .iter()
            .enumerate()
            .map(|(i, t)| (Some(i), t.next))
            .chain(std::iter::once((None, st.default)));
        for (choice, next) in choices {
            if out.len() >= cap {
                return;
            }
            prefix.push((s, choice));
            match next {
                NextState::Accept => out.push(prefix.clone()),
                NextState::Reject => {}
                NextState::State(n) => visit(spec, n, prefix, out, max_depth, cap),
            }
            prefix.pop();
        }
    }

    visit(spec, spec.start, &mut prefix, &mut out, max_depth, cap);
    out
}

/// Materializes one accepting path into a concrete packet.
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

/// Generates the grammar-aware seed packets for `spec`: one per accepting
/// path (depth- and count-capped by `cfg`).
pub fn seed_packets(spec: &ParserSpec, cfg: &FuzzConfig, rng: &mut Rng) -> Vec<SeedPacket> {
    // Loop-free specs visit each state at most once; loopy specs get their
    // unrollings bounded to a depth that keeps path counts sane.
    let depth = analysis::max_path_states(spec, 12).max(2);
    accepting_paths(spec, depth, cfg.max_paths)
        .iter()
        .map(|p| materialize(spec, p, rng))
        .collect()
}

/// Derives the mutant packets of one seed, tagged with their generator
/// class.
pub fn mutants(
    seed: &SeedPacket,
    cfg: &FuzzConfig,
    rng: &mut Rng,
) -> Vec<(&'static str, BitString)> {
    let mut out: Vec<(&'static str, BitString)> = Vec::new();
    let b = &seed.bits;
    out.push(("path", b.clone()));

    // Flip each planted constant bit (near-miss keys).
    for &p in seed.planted.iter().take(cfg.max_flips) {
        let mut m = b.clone();
        m.set(p, !m.get(p));
        out.push(("flip", m));
    }

    // Truncate at (and one bit before) every extraction boundary.
    for &cut in &seed.boundaries {
        if cut <= b.len() {
            out.push(("truncate", b.slice(0, cut)));
        }
        if cut >= 1 && cut - 1 <= b.len() {
            out.push(("truncate", b.slice(0, cut - 1)));
        }
    }

    // Varbit control extremes: all-zeros (length offset only) and all-ones
    // (clamped to the declared maximum).
    for &(s, e) in &seed.control_ranges {
        let mut zero = b.clone();
        let mut ones = b.clone();
        for i in s..e.min(b.len()) {
            zero.set(i, false);
            ones.set(i, true);
        }
        out.push(("ctrl-extreme", zero));
        out.push(("ctrl-extreme", ones));
    }

    // Lengths that leave a lookahead window partially past the end.
    for &cut in &seed.lookahead_probes {
        if cut < b.len() {
            out.push(("lookahead", b.slice(0, cut)));
        }
    }

    // Random bits appended past the accepting length.
    let mut ext = b.clone();
    for _ in 0..16 {
        ext.push(rng.gen_bool(0.5));
    }
    out.push(("extend", ext));

    out
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
    iters: usize,
    generator: &'static str,
) -> Outcome {
    let s = simulate(spec, input, iters);
    if s.status == ParseStatus::IterationBudget {
        return Outcome::Incomparable;
    }
    let h = run_program(program, &spec.fields, input, iters * 4);
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
fn still_diverges(
    spec: &ParserSpec,
    program: &TcamProgram,
    input: &BitString,
    iters: usize,
) -> bool {
    matches!(
        compare_one(spec, "", program, input, iters, "shrink"),
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
    iters: usize,
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
                if !cand.is_empty() && still_diverges(spec, program, &cand, iters) {
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
                if still_diverges(spec, program, &cand, iters) {
                    cur = cand;
                }
            }
        }

        if cur == before || *steps >= max_trials {
            return cur;
        }
    }
}

/// Runs the differential oracle: every grammar-aware seed, its mutants and
/// a tail of uniform random packets, each compared across `programs`.
/// Divergences are shrunk (when configured) and reported structurally.
pub fn fuzz(spec: &ParserSpec, programs: &[(&str, &TcamProgram)], cfg: &FuzzConfig) -> FuzzReport {
    let tracer = ph_obs::current();
    let _span = tracer.span("fuzz.case");
    let mut rng = Rng::seed_from_u64(cfg.seed ^ 0xf0225eed);
    let mut stats = FuzzStats::default();
    let mut divergences: Vec<Divergence> = Vec::new();

    let seeds = seed_packets(spec, cfg, &mut rng);
    stats.seeds = seeds.len() as u64;

    let budget_left = |stats: &FuzzStats, divs: &Vec<Divergence>| {
        divs.len() < cfg.max_divergences
            && (cfg.packet_budget == 0 || (stats.packets as usize) < cfg.packet_budget)
    };

    let run_input = |generator: &'static str,
                     input: &BitString,
                     stats: &mut FuzzStats,
                     divergences: &mut Vec<Divergence>| {
        for &(name, program) in programs {
            if !budget_left(stats, divergences) {
                return;
            }
            stats.packets += 1;
            match compare_one(spec, name, program, input, cfg.iters, generator) {
                Outcome::Agree => {}
                Outcome::Incomparable => stats.incomparable += 1,
                Outcome::Diverged(mut d) => {
                    if cfg.shrink {
                        let mut steps = 0u64;
                        let small = ddmin(spec, program, input, cfg.iters, 2000, &mut steps);
                        // Re-derive the report on the minimal input so the
                        // paths/statuses describe what is actually shipped.
                        if let Outcome::Diverged(sd) =
                            compare_one(spec, name, program, &small, cfg.iters, generator)
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
    };

    for seed in &seeds {
        if !budget_left(&stats, &divergences) {
            break;
        }
        for (generator, input) in mutants(seed, cfg, &mut rng) {
            run_input(generator, &input, &mut stats, &mut divergences);
        }
    }

    // Uniform random tail — the original Fig. 22 sampler, kept as a class.
    let full = analysis::max_bits_consumed(spec, cfg.iters.min(24)).max(1);
    for round in 0..cfg.random_samples {
        if !budget_left(&stats, &divergences) {
            break;
        }
        let len = match round % 4 {
            0 | 1 => full,
            2 => rng.gen_range(0..=full),
            _ => full + rng.gen_range(0..=16usize),
        };
        let mut input = BitString::zeros(len);
        for i in 0..len {
            input.set(i, rng.gen_bool(0.5));
        }
        run_input("random", &input, &mut stats, &mut divergences);
    }

    stats.emit(&tracer, "fuzz");
    FuzzReport { stats, divergences }
}

/// The post-verification gate used by `synthesize()` when
/// [`SynthParams::e2e_samples`](crate::SynthParams) is non-zero: runs the
/// oracle with an overall packet budget and returns the first (shrunk)
/// divergence as an error.
///
/// # Errors
///
/// The first divergence found, minimized.
pub fn check_e2e(
    spec: &ParserSpec,
    program: &TcamProgram,
    seed: u64,
    samples: usize,
) -> Result<FuzzStats, Box<Divergence>> {
    let cfg = FuzzConfig {
        seed,
        max_paths: 32,
        max_flips: 32,
        random_samples: samples / 4,
        max_divergences: 1,
        packet_budget: samples,
        ..FuzzConfig::default()
    };
    let report = fuzz(spec, &[("synth", program)], &cfg);
    match report.divergences.into_iter().next() {
        None => Ok(report.stats),
        Some(d) => Err(Box::new(d)),
    }
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
    fn accepting_paths_cover_both_branches() {
        let spec = varbit_spec();
        let paths = accepting_paths(&spec, 8, 64);
        // start->default-accept and start->opts->accept.
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn seeds_satisfy_their_planted_patterns() {
        let spec = varbit_spec();
        let cfg = FuzzConfig::default();
        let mut rng = Rng::seed_from_u64(7);
        let seeds = seed_packets(&spec, &cfg, &mut rng);
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
        let cfg = FuzzConfig::default();
        let mut rng = Rng::seed_from_u64(7);
        let seeds = seed_packets(&spec, &cfg, &mut rng);
        let deep = seeds.iter().find(|s| s.path == vec![0, 1]).unwrap();
        let ms = mutants(deep, &cfg, &mut rng);
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
        assert!(still_diverges(&spec, &prog, &d.input, 64));
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

    #[test]
    fn divergence_json_shape() {
        let d = Divergence {
            subject: "synth".into(),
            generator: "flip",
            input: BitString::from_u64(0b1010, 4),
            kind: DivergenceKind::Dict,
            spec_status: ParseStatus::Accept,
            impl_status: ParseStatus::Accept,
            spec_path: vec![0, 1],
            impl_path: vec![0, 2],
            first_diff_field: Some("opts".into()),
            shrink_steps: 17,
        };
        let j = Json::parse(&d.to_json().to_string()).unwrap();
        assert_eq!(j.get("kind").and_then(Json::as_str), Some("dict"));
        assert_eq!(j.get("input").and_then(Json::as_str), Some("1010"));
        assert_eq!(j.get("input_bits").and_then(Json::as_i64), Some(4));
        assert_eq!(j.get("shrink_steps").and_then(Json::as_i64), Some(17));
        assert_eq!(
            j.get("first_diff_field").and_then(Json::as_str),
            Some("opts")
        );
        assert_eq!(
            j.get("spec_path").and_then(Json::as_arr).map(|a| a.len()),
            Some(2)
        );
    }
}
