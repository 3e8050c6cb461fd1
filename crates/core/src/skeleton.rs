//! The parameterized parser skeleton (§5 / Table 2).
//!
//! A skeleton is a TCAM machine with holes: `S` hardware states (one
//! synthetic entry state, one state per field-extraction slot under Opt3,
//! plus spare key-checking states), each with `E` prioritized entries whose
//! value, mask, activity and next-state are symbolic, and per-state
//! key-source allocation variables over the spec's key bit groups.
//!
//! **Canonical key layout.**  Instead of the shift-based `key_sel`
//! construction of the paper's Appendix 12, every state's key is laid out
//! over the *full* canonical group vector: group `g`'s bits occupy a fixed
//! range, contributing their value when `Alloc[g][s]` holds and zeros
//! otherwise, with entry masks constrained to care only about allocated
//! groups.  This is an equivalent encoding of `Alloc`/`Trankey`/`Lookahead`
//! from Table 2 that needs no symbolic shifting, and it makes Opt4's
//! constant candidates line up positionally.

use crate::reduce::Reduced;
use crate::OptConfig;
use ph_bits::{bits_for, BitString};
use ph_hw::{Arch, DeviceProfile, HwEntry, HwNext, HwState, HwStateId, TcamProgram};
use ph_ir::{analysis, FieldId, KeyPart, NextState, ParserSpec, StateId};
use ph_smt::{Smt, Term};

/// Where a key group's bits come from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum GroupSource {
    /// Bits `[start, end)` of a field's extracted value.
    Slice {
        /// Source field.
        field: FieldId,
        /// First bit.
        start: usize,
        /// One past the last bit.
        end: usize,
    },
    /// Bits `[start, end)` ahead of the extraction cursor.
    Lookahead {
        /// First bit relative to the cursor.
        start: usize,
        /// One past the last bit.
        end: usize,
    },
}

/// One indivisible key-source unit (Opt5's grouping granularity).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Group {
    /// The bits' origin.
    pub source: GroupSource,
    /// Offset of this group in the canonical key layout.
    pub offset: usize,
    /// Width in bits.
    pub width: usize,
}

/// The skeleton's static structure (no solver terms).
#[derive(Clone, Debug)]
pub struct Shape {
    /// Field *run* hosted by each extraction slot, in first-extraction
    /// order; slot `i` is hardware state `i + 1`.  A run is a maximal
    /// sequence of consecutively extracted fields within one spec state,
    /// split after every field that contributes transition-key bits — the
    /// spec extracts a state's fields atomically before keying, so no
    /// correct implementation can interleave checks inside a run, and
    /// bundling them keeps the unrolling depth proportional to the number
    /// of *decisions* rather than the number of fields.
    pub slots: Vec<Vec<FieldId>>,
    /// Extra no-extraction states appended after the slots (key splitting).
    pub spares: usize,
    /// Key-source groups in canonical order.
    pub groups: Vec<Group>,
    /// Total canonical key width (at least 1).
    pub canon_width: usize,
    /// Entries per state.
    pub entries_per_state: usize,
    /// Whether entries may transition backwards (single-table loops).
    pub loopy: bool,
    /// Opt4 value candidates in canonical layout (None = free values).
    pub value_candidates: Option<Vec<BitString>>,
    /// Opt4 mask candidates in canonical layout (None = free masks):
    /// spec pattern masks, per-target cluster-agreement masks (§6.4.2) and
    /// their single-group restrictions (§6.4.3 subranges).
    pub mask_candidates: Option<Vec<BitString>>,
    /// Whether extraction slots are preallocated (Opt3).
    pub opt3: bool,
    /// Largest number of extraction runs any single spec state produces
    /// (bounds the loopy skeleton's per-visit slot count).
    pub max_runs_per_state: usize,
    /// Reduced field widths, indexed by `FieldId`.
    pub field_widths: Vec<usize>,
}

impl Shape {
    /// Total hardware states: entry + slots + spares.
    pub fn state_count(&self) -> usize {
        1 + self.slots.len() + self.spares
    }

    /// Code for `accept` in next/state registers.
    pub fn accept_code(&self) -> usize {
        self.state_count()
    }

    /// Code for `reject`.
    pub fn reject_code(&self) -> usize {
        self.state_count() + 1
    }

    /// Code for "ran out of input".
    pub fn ooi_code(&self) -> usize {
        self.state_count() + 2
    }

    /// Width of state/next registers.
    pub fn state_bits(&self) -> u32 {
        bits_for(self.ooi_code() as u64)
    }

    /// Width of the extraction-selector registers (0 = none, `i` = slot `i`).
    pub fn ext_bits(&self) -> u32 {
        bits_for(self.slots.len() as u64)
    }
}

/// Per-entry solver terms.
#[derive(Clone, Debug)]
pub struct EntryTerms {
    /// Entry participates in matching.
    pub active: Term,
    /// Canonical-layout value.
    pub value: Term,
    /// Canonical-layout mask (1 = care).
    pub mask: Term,
    /// Next-state code.
    pub next: Term,
}

/// All solver terms of a skeleton instance — either fresh variables
/// (synthesis) or constants from a model (verification).
#[derive(Clone, Debug)]
pub struct SkelTerms {
    /// `alloc[s][g]`: group `g` is part of state `s`'s key.
    pub alloc: Vec<Vec<Term>>,
    /// `entries[s][j]` in priority order.
    pub entries: Vec<Vec<EntryTerms>>,
    /// Extraction selector per state (constant under Opt3).
    pub ext_sel: Vec<Term>,
}

/// Variable bundle produced for the synthesis solver.
pub struct SkelVars {
    /// The shared terms used by the simulation encoding.
    pub terms: SkelTerms,
    /// Pipeline-stage variables (IPU only).
    pub stage: Option<Vec<Term>>,
    /// Total number of active entries (for budget minimization).
    pub active_count: Term,
    /// Width of `active_count`.
    pub count_bits: u32,
    /// Total decision-variable bits — the reported search-space size.
    pub search_space_bits: usize,
}

/// Builds the skeleton structure from the reduced spec.
///
/// `spare_override` fixes the number of spare key-checking states; `None`
/// sizes them from the spec's widest key.  Every caller passes `None`
/// (synthesis passes [`crate::SPARE_STATES`]); the parameter stays because
/// the benchmark ledger's per-layer timing calls this function with it.
///
/// # Errors
///
/// Returns a message for unsupported shapes (e.g. lookahead beyond the
/// device's window with no way to allocate it).
pub fn build_shape(
    reduced: &Reduced,
    device: &DeviceProfile,
    opts: OptConfig,
    loopy: bool,
    spare_override: Option<usize>,
) -> Result<Shape, String> {
    let spec = &reduced.spec;

    // Extraction slots: per reachable state, runs of consecutive fields
    // split after keyed fields.  Loopy skeletons dedup identical runs so a
    // loop can reuse one state.
    let keyed: Vec<bool> = analysis::key_bits_used(spec)
        .iter()
        .map(|bits| !bits.is_empty())
        .collect();
    let mut slots: Vec<Vec<FieldId>> = Vec::new();
    for s in analysis::reachable_states(spec) {
        let mut run: Vec<FieldId> = Vec::new();
        for &f in &spec.state(s).extracts {
            run.push(f);
            if keyed[f.0] {
                slots.push(std::mem::take(&mut run));
            }
        }
        if !run.is_empty() {
            slots.push(run);
        }
    }
    let mut max_runs_per_state = 0usize;
    for s in analysis::reachable_states(spec) {
        let runs = spec.state(s).extracts.iter().filter(|f| keyed[f.0]).count()
            + usize::from(spec.state(s).extracts.last().is_some_and(|f| !keyed[f.0]));
        max_runs_per_state = max_runs_per_state.max(runs);
    }
    if loopy {
        let mut dedup: Vec<Vec<FieldId>> = Vec::new();
        for r in slots {
            if !dedup.contains(&r) {
                dedup.push(r);
            }
        }
        slots = dedup;
    }

    // Key-source groups.
    let mut groups_src: Vec<GroupSource> = Vec::new();
    if opts.opt1_spec_keys {
        for (f, a, b) in analysis::key_bit_groups(spec) {
            if opts.opt5_grouping {
                groups_src.push(GroupSource::Slice {
                    field: f,
                    start: a,
                    end: b,
                });
            } else {
                for bit in a..b {
                    groups_src.push(GroupSource::Slice {
                        field: f,
                        start: bit,
                        end: bit + 1,
                    });
                }
            }
        }
    } else {
        // Naive mode: every bit of every extracted field is allocatable.
        let mut seen = vec![false; spec.fields.len()];
        for f in slots.iter().flatten().copied() {
            if seen[f.0] {
                continue;
            }
            seen[f.0] = true;
            for bit in 0..spec.field(f).width {
                groups_src.push(GroupSource::Slice {
                    field: f,
                    start: bit,
                    end: bit + 1,
                });
            }
        }
    }
    // Lookahead groups come from the spec's lookahead key parts (deduped);
    // windows beyond the device limit are rejected.
    let mut lookaheads: Vec<(usize, usize)> = spec
        .states
        .iter()
        .flat_map(|st| {
            st.key.iter().filter_map(|kp| match *kp {
                KeyPart::Lookahead { start, end } => Some((start, end)),
                _ => None,
            })
        })
        .collect();
    lookaheads.sort_unstable();
    lookaheads.dedup();
    for (a, b) in lookaheads {
        if b > device.lookahead_limit {
            return Err(format!(
                "spec lookahead reaches bit {b}, device window is {}",
                device.lookahead_limit
            ));
        }
        if opts.opt5_grouping {
            groups_src.push(GroupSource::Lookahead { start: a, end: b });
        } else {
            for bit in a..b {
                groups_src.push(GroupSource::Lookahead {
                    start: bit,
                    end: bit + 1,
                });
            }
        }
    }

    // Split any group wider than the device's key limit into chunks — a
    // group must be allocatable to a single state, and Opt4.3's subrange
    // splitting needs sub-group granularity for wide constants.
    let chunk_limit = device.key_limit.max(1);
    let mut groups = Vec::with_capacity(groups_src.len());
    let mut offset = 0;
    for src in groups_src {
        let (a, b) = match src {
            GroupSource::Slice { start, end, .. } | GroupSource::Lookahead { start, end } => {
                (start, end)
            }
        };
        let mut lo = a;
        while lo < b {
            let hi = (lo + chunk_limit).min(b);
            let part = match src {
                GroupSource::Slice { field, .. } => GroupSource::Slice {
                    field,
                    start: lo,
                    end: hi,
                },
                GroupSource::Lookahead { .. } => GroupSource::Lookahead { start: lo, end: hi },
            };
            groups.push(Group {
                source: part,
                offset,
                width: hi - lo,
            });
            offset += hi - lo;
            lo = hi;
        }
    }
    let canon_width = offset.max(1);

    // Entry budget per state.
    let max_t = spec
        .states
        .iter()
        .map(|s| s.transitions.len())
        .max()
        .unwrap_or(0);
    let entries_per_state = (max_t + 2).clamp(2, 12);

    // Spare states for key splitting: splitting a wide key over `c` chunks
    // needs up to one continuation state per distinct higher-chunk prefix,
    // so budget (chunks − 1) × (distinct first-chunk patterns) for the
    // widest-keyed state, capped.
    let spares = spare_override.unwrap_or_else(|| {
        let mut need = 0usize;
        for st in &spec.states {
            let kw = st.key_width();
            if device.key_limit == 0 || kw <= device.key_limit {
                continue;
            }
            let chunks = kw.div_ceil(device.key_limit);
            let mut firsts: Vec<String> = st
                .transitions
                .iter()
                .map(|t| t.pattern.slice(0, device.key_limit.min(kw)).to_string())
                .collect();
            firsts.sort();
            firsts.dedup();
            need = need.max((chunks - 1) * firsts.len().max(1));
        }
        need.min(6)
    });

    // Opt4 candidate values and masks in canonical layout.
    let (value_candidates, mask_candidates) = if opts.opt4_constants {
        let (v, m) = candidate_sets(spec, &groups, canon_width);
        (Some(v), Some(m))
    } else {
        (None, None)
    };

    Ok(Shape {
        slots,
        spares,
        groups,
        canon_width,
        entries_per_state,
        loopy,
        value_candidates,
        mask_candidates,
        opt3: opts.opt3_prealloc,
        max_runs_per_state,
        field_widths: spec.fields.iter().map(|f| f.width).collect(),
    })
}

/// Projects a spec state's pattern into the canonical layout; `None` when a
/// key part has no covering group (cannot happen when groups were derived
/// from the same spec).
fn project_pattern(
    spec: &ParserSpec,
    state: StateId,
    pattern: &ph_bits::Ternary,
    groups: &[Group],
    canon_width: usize,
) -> Option<(BitString, BitString)> {
    let mut value = BitString::zeros(canon_width);
    let mut mask = BitString::zeros(canon_width);
    let mut po = 0usize;
    for kp in &spec.state(state).key {
        let w = kp.width();
        // Place each pattern bit individually: a key part may span several
        // chunked groups.
        for i in 0..w {
            if !pattern.mask().get(po + i) {
                continue;
            }
            let place = groups.iter().find_map(|g| match (*kp, g.source) {
                (
                    KeyPart::Slice { field, start, .. },
                    GroupSource::Slice {
                        field: gf,
                        start: gs,
                        end: ge,
                    },
                ) if field == gf && start + i >= gs && start + i < ge => {
                    Some(g.offset + (start + i - gs))
                }
                (
                    KeyPart::Lookahead { start, .. },
                    GroupSource::Lookahead { start: gs, end: ge },
                ) if start + i >= gs && start + i < ge => Some(g.offset + (start + i - gs)),
                _ => None,
            })?;
            mask.set(place, true);
            value.set(place, pattern.value().get(po + i));
        }
        po += w;
    }
    Some((value, mask))
}

/// The Opt4 candidate sets in canonical layout.
///
/// **Values** (§6.4.1): zero, every spec pattern's value, and pairwise
/// OR-combinations of patterns from different states with disjoint group
/// footprints (the concatenation candidates).
///
/// **Masks** (§6.4.2/§6.4.3): zero, every spec pattern's mask, the
/// *cluster-agreement* mask per (state, target) — care bits on which all
/// rules sharing a target agree, which is exactly the mask that merges the
/// cluster — pairwise-agreement masks, OR-combinations mirroring the value
/// combos, and each candidate's restriction to a single group (the
/// hardware-width subranges used for key splitting).
fn candidate_sets(
    spec: &ParserSpec,
    groups: &[Group],
    canon_width: usize,
) -> (Vec<BitString>, Vec<BitString>) {
    const CAP: usize = 128;
    let mut singles: Vec<(BitString, BitString, usize, NextState)> = Vec::new();
    for (si, st) in spec.states.iter().enumerate() {
        for tr in &st.transitions {
            if let Some((v, m)) =
                project_pattern(spec, StateId(si), &tr.pattern, groups, canon_width)
            {
                singles.push((v, m, si, tr.next));
            }
        }
    }

    let mut values: Vec<BitString> = vec![BitString::zeros(canon_width)];
    let mut masks: Vec<BitString> = vec![BitString::zeros(canon_width)];
    let push = |list: &mut Vec<BitString>, b: BitString| {
        if !list.contains(&b) && list.len() < CAP {
            list.push(b);
        }
    };
    for (v, m, _, _) in &singles {
        push(&mut values, v.clone());
        push(&mut masks, m.clone());
    }

    // Agreement masks per (state, target) cluster and per pair.
    let mut keys: Vec<(usize, NextState)> = singles.iter().map(|(_, _, s, n)| (*s, *n)).collect();
    keys.sort_by_key(|(s, n)| (*s, format!("{n:?}")));
    keys.dedup();
    for (s, n) in keys {
        let members: Vec<&(BitString, BitString, usize, NextState)> = singles
            .iter()
            .filter(|(_, _, si, ni)| *si == s && *ni == n)
            .collect();
        if members.len() < 2 {
            continue;
        }
        // Whole-cluster agreement.
        let mut agree = members[0].1.clone();
        for w in members.windows(2) {
            let diff = w[0].0.xor(&w[1].0);
            agree = agree.and(&diff.not()).and(&w[1].1);
        }
        push(&mut masks, agree);
        // Pairwise agreements.
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                let diff = members[i].0.xor(&members[j].0);
                let m = members[i].1.and(&members[j].1).and(&diff.not());
                push(&mut masks, m);
            }
        }
    }

    // Pairwise cross-state combinations with disjoint footprints.
    let snapshot: Vec<(BitString, BitString, usize)> = singles
        .iter()
        .map(|(v, m, s, _)| (v.clone(), m.clone(), *s))
        .collect();
    for i in 0..snapshot.len() {
        for j in (i + 1)..snapshot.len() {
            let (va, ma, sa) = &snapshot[i];
            let (vb, mb, sb) = &snapshot[j];
            if sa == sb || ma.and(mb).count_ones() != 0 {
                continue;
            }
            push(&mut values, va.or(vb));
            push(&mut masks, ma.or(mb));
        }
    }

    // Single-group restrictions of every mask (subranges for key splitting).
    let base_masks = masks.clone();
    for m in &base_masks {
        for g in groups {
            let mut cut = BitString::zeros(canon_width);
            for i in g.offset..g.offset + g.width {
                if m.get(i) {
                    cut.set(i, true);
                }
            }
            if cut.count_ones() != 0 {
                push(&mut masks, cut);
            }
        }
    }

    (values, masks)
}

/// Creates the solver variables for `shape` and asserts the structural /
/// device constraints (φ_tofino or φ_IPU of Figs. 10–11).
#[allow(clippy::needless_range_loop)] // index-driven encodings name terms by (s, j)
pub fn build_vars(smt: &mut Smt, shape: &Shape, device: &DeviceProfile) -> SkelVars {
    let s_count = shape.state_count();
    let n_slots = shape.slots.len();
    let e_per = shape.entries_per_state;
    let kw = shape.canon_width as u32;
    let sbits = shape.state_bits();
    let mut space = 0usize;

    // Allocation variables.
    let mut alloc = Vec::with_capacity(s_count);
    for s in 0..s_count {
        let row: Vec<Term> = (0..shape.groups.len())
            .map(|g| smt.var(&format!("alloc_{s}_{g}"), 1))
            .collect();
        space += row.len();
        alloc.push(row);
    }

    // Key width limit per state: sum of allocated group widths <= keyLimit.
    let sum_bits = bits_for(shape.canon_width.max(1) as u64) + 1;
    for s in 0..s_count {
        let mut sum = smt.const_u64(0, sum_bits);
        for (g, grp) in shape.groups.iter().enumerate() {
            let w = smt.const_u64(grp.width as u64, sum_bits);
            let z = smt.const_u64(0, sum_bits);
            let add = smt.ite(alloc[s][g], w, z);
            sum = smt.add(sum, add);
        }
        let limit = smt.const_u64(device.key_limit.min(shape.canon_width) as u64, sum_bits);
        let ok = smt.ule(sum, limit);
        smt.assert(ok);
    }

    // Entry variables.  Under Opt4 both value and mask come from candidate
    // muxes; otherwise they are free bit-vectors.
    let candidate_mux =
        |smt: &mut Smt, list: &[BitString], name: String, space: &mut usize| -> Term {
            let vb = bits_for(list.len().saturating_sub(1) as u64).max(1);
            let sel = smt.var(&name, vb);
            *space += vb as usize;
            let lim = smt.const_u64(list.len() as u64 - 1, vb);
            let in_range = smt.ule(sel, lim);
            smt.assert(in_range);
            let mut v = smt.const_bits(list[0].clone());
            for (ci, c) in list.iter().enumerate().skip(1) {
                let ci_t = smt.const_u64(ci as u64, vb);
                let is = smt.eq(sel, ci_t);
                let cv = smt.const_bits(c.clone());
                v = smt.ite(is, cv, v);
            }
            v
        };
    let mut entries = Vec::with_capacity(s_count);
    let mut all_actives = Vec::new();
    for s in 0..s_count {
        let mut row = Vec::with_capacity(e_per);
        for j in 0..e_per {
            let active = smt.var(&format!("act_{s}_{j}"), 1);
            space += 1;
            let mask = match shape.mask_candidates.as_ref() {
                Some(list) => candidate_mux(smt, list, format!("msel_{s}_{j}"), &mut space),
                None => {
                    let m = smt.var(&format!("mask_{s}_{j}"), kw);
                    space += kw as usize;
                    m
                }
            };
            let value = match shape.value_candidates.as_ref() {
                Some(list) => candidate_mux(smt, list, format!("vsel_{s}_{j}"), &mut space),
                None => {
                    let v = smt.var(&format!("val_{s}_{j}"), kw);
                    space += kw as usize;
                    // Normalize: value bits under wildcard mask are zero.
                    let vm = smt.and(v, mask);
                    let norm = smt.eq(vm, v);
                    smt.assert(norm);
                    v
                }
            };
            let next = smt.var(&format!("next_{s}_{j}"), sbits);
            space += sbits as usize;

            // Next-state range: 1..=reject, and forward-only when loop-free.
            let one = smt.const_u64(1, sbits);
            let rej = smt.const_u64(shape.reject_code() as u64, sbits);
            let ge1 = smt.ule(one, next);
            let lerej = smt.ule(next, rej);
            let range = smt.and(ge1, lerej);
            let imp = smt.implies(active, range);
            smt.assert(imp);

            // Mask only covers allocated groups.
            for (g, grp) in shape.groups.iter().enumerate() {
                let sub = smt.extract(mask, grp.offset as u32, (grp.offset + grp.width) as u32);
                let z = smt.const_u64(0, grp.width as u32);
                let zero = smt.eq(sub, z);
                let na = smt.not(alloc[s][g]);
                let c = smt.implies(na, zero);
                smt.assert(c);
            }

            all_actives.push(active);
            row.push(EntryTerms {
                active,
                value,
                mask,
                next,
            });
        }
        // Active entries form a prefix.
        for j in 1..e_per {
            let c = smt.implies(row[j].active, row[j - 1].active);
            smt.assert(c);
        }
        entries.push(row);
    }

    // Loop-free ordering: symbolic ranks, strictly increasing along edges.
    if !shape.loopy {
        let rbits = bits_for(s_count as u64).max(1);
        let ranks: Vec<Term> = (0..s_count)
            .map(|s| smt.var(&format!("rank_{s}"), rbits))
            .collect();
        space += s_count * rbits as usize;
        for s in 0..s_count {
            for j in 0..e_per {
                for t in 1..s_count {
                    let tc = smt.const_u64(t as u64, sbits);
                    let goes = smt.eq(entries[s][j].next, tc);
                    let cond = smt.and(entries[s][j].active, goes);
                    let lt = smt.ult(ranks[s], ranks[t]);
                    let c = smt.implies(cond, lt);
                    smt.assert(c);
                }
            }
        }
    }

    // Extraction selectors.
    let ebits = shape.ext_bits();
    let mut ext_sel = Vec::with_capacity(s_count);
    for s in 0..s_count {
        if shape.opt3 {
            // Entry state and spares extract nothing; slot states extract
            // their preallocated field.
            let code = if s >= 1 && s <= n_slots { s as u64 } else { 0 };
            ext_sel.push(smt.const_u64(code, ebits));
        } else if s == 0 {
            ext_sel.push(smt.const_u64(0, ebits));
        } else {
            let v = smt.var(&format!("ext_{s}"), ebits);
            space += ebits as usize;
            let lim = smt.const_u64(n_slots as u64, ebits);
            let ok = smt.ule(v, lim);
            smt.assert(ok);
            ext_sel.push(v);
        }
    }

    // Total active entry count.
    let actives_count = smt.popcount(&all_actives);
    let count_bits = smt.width(actives_count);

    // Device-specific constraints.
    let mut stage = None;
    match device.arch {
        Arch::SingleTable => {
            // tcamLimit bounds the total entry count (Fig. 10).
            let lim = smt.const_u64(device.tcam_limit.min(s_count * e_per) as u64, count_bits);
            let ok = smt.ule(actives_count, lim);
            smt.assert(ok);
        }
        Arch::Pipelined | Arch::Interleaved => {
            // Fig. 11: per-state stage variables; transitions move strictly
            // forward (New2); stages bounded (New1); per-stage entry budget.
            // The stage domain is clamped to the state count — a feasible
            // program never needs more stages than states, and the smaller
            // domain keeps the cardinality constraints cheap.
            let eff_limit = device.stage_limit.min(s_count);
            let stb = bits_for(eff_limit.saturating_sub(1) as u64).max(1);
            let stages: Vec<Term> = (0..s_count)
                .map(|s| smt.var(&format!("stage_{s}"), stb))
                .collect();
            space += s_count * stb as usize;
            for s in 0..s_count {
                let lim = smt.const_u64(eff_limit as u64 - 1, stb);
                let ok = smt.ule(stages[s], lim);
                smt.assert(ok);
                for j in 0..e_per {
                    for t in 1..s_count {
                        let tc = smt.const_u64(t as u64, sbits);
                        let goes = smt.eq(entries[s][j].next, tc);
                        let cond = smt.and(entries[s][j].active, goes);
                        let fwd = smt.ult(stages[s], stages[t]);
                        let c = smt.implies(cond, fwd);
                        smt.assert(c);
                    }
                }
            }
            // Per-stage entry budget.
            for d in 0..eff_limit {
                let dc = smt.const_u64(d as u64, stb);
                let mut in_stage = Vec::new();
                for s in 0..s_count {
                    let here = smt.eq(stages[s], dc);
                    for j in 0..e_per {
                        let both = smt.and(here, entries[s][j].active);
                        in_stage.push(both);
                    }
                }
                let cnt = smt.popcount(&in_stage);
                let w = smt.width(cnt);
                let lim = smt.const_u64(device.tcam_limit.min(in_stage.len()) as u64, w);
                let ok = smt.ule(cnt, lim);
                smt.assert(ok);
            }
            stage = Some(stages);
        }
    }

    SkelVars {
        terms: SkelTerms {
            alloc,
            entries,
            ext_sel,
        },
        stage,
        active_count: actives_count,
        count_bits,
        search_space_bits: space,
    }
}

/// A model of the skeleton: every decision resolved to a constant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcreteSkel {
    /// `alloc[s][g]`.
    pub alloc: Vec<Vec<bool>>,
    /// Active entries per state, priority order.
    pub entries: Vec<Vec<ConcreteEntry>>,
    /// Extraction slot index per state (0 = none).
    pub ext: Vec<usize>,
    /// Stage per state (all zero for single-table devices).
    pub stage: Vec<usize>,
}

/// One resolved TCAM entry (canonical layout).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConcreteEntry {
    /// Canonical value.
    pub value: BitString,
    /// Canonical mask.
    pub mask: BitString,
    /// Next-state code.
    pub next: usize,
}

/// Reads a [`ConcreteSkel`] out of the synthesis solver's model.
pub fn extract_model(smt: &mut Smt, shape: &Shape, vars: &SkelVars) -> ConcreteSkel {
    let s_count = shape.state_count();
    let mut alloc = Vec::with_capacity(s_count);
    let mut entries = Vec::with_capacity(s_count);
    let mut ext = Vec::with_capacity(s_count);
    let mut stage = Vec::with_capacity(s_count);
    for s in 0..s_count {
        alloc.push(
            (0..shape.groups.len())
                .map(|g| smt.model_bool(vars.terms.alloc[s][g]))
                .collect::<Vec<bool>>(),
        );
        let mut row = Vec::new();
        for e in &vars.terms.entries[s] {
            if !smt.model_bool(e.active) {
                break; // actives are a prefix
            }
            row.push(ConcreteEntry {
                value: smt.model_value(e.value),
                mask: smt.model_value(e.mask),
                next: smt.model_u64(e.next) as usize,
            });
        }
        entries.push(row);
        ext.push(smt.model_u64(vars.terms.ext_sel[s]) as usize);
        stage.push(match &vars.stage {
            Some(sv) => smt.model_u64(sv[s]) as usize,
            None => 0,
        });
    }
    ConcreteSkel {
        alloc,
        entries,
        ext,
        stage,
    }
}

/// Creates *free* (unconstrained) skeleton variables for the persistent
/// incremental verifier: the same term layout as [`build_vars`] produces,
/// but with no structural or device constraints asserted.  Each candidate
/// is pinned to these variables with the equality assumptions from
/// [`pin_candidate`], so one solver instance serves every verification
/// query of a synthesis run.
pub fn build_verifier_terms(smt: &mut Smt, shape: &Shape) -> SkelTerms {
    let s_count = shape.state_count();
    let e_per = shape.entries_per_state;
    let kw = shape.canon_width as u32;
    let sbits = shape.state_bits();
    let ebits = shape.ext_bits();
    let mut alloc = Vec::with_capacity(s_count);
    let mut entries = Vec::with_capacity(s_count);
    let mut ext_sel = Vec::with_capacity(s_count);
    for s in 0..s_count {
        alloc.push(
            (0..shape.groups.len())
                .map(|g| smt.var(&format!("v_alloc_{s}_{g}"), 1))
                .collect::<Vec<Term>>(),
        );
        let row = (0..e_per)
            .map(|j| EntryTerms {
                active: smt.var(&format!("v_act_{s}_{j}"), 1),
                value: smt.var(&format!("v_val_{s}_{j}"), kw),
                mask: smt.var(&format!("v_mask_{s}_{j}"), kw),
                next: smt.var(&format!("v_next_{s}_{j}"), sbits),
            })
            .collect::<Vec<EntryTerms>>();
        entries.push(row);
        ext_sel.push(smt.var(&format!("v_ext_{s}"), ebits));
    }
    SkelTerms {
        alloc,
        entries,
        ext_sel,
    }
}

/// Equality assumptions pinning [`build_verifier_terms`] variables to a
/// concrete candidate.  Entries beyond the candidate's active prefix are
/// pinned inactive only — their value/mask/next stay unconstrained, which
/// is sound because the simulation encoding gates all matching on
/// `active`.  Stages are not pinned: they never enter the simulation
/// semantics.
pub fn pin_candidate(
    smt: &mut Smt,
    shape: &Shape,
    terms: &SkelTerms,
    conc: &ConcreteSkel,
) -> Vec<Term> {
    let sbits = shape.state_bits();
    let ebits = shape.ext_bits();
    let mut pins = Vec::new();
    for s in 0..shape.state_count() {
        for (g, &b) in conc.alloc[s].iter().enumerate() {
            let c = smt.const_u64(b as u64, 1);
            pins.push(smt.eq(terms.alloc[s][g], c));
        }
        for (j, et) in terms.entries[s].iter().enumerate() {
            match conc.entries[s].get(j) {
                Some(e) => {
                    let one = smt.const_u64(1, 1);
                    pins.push(smt.eq(et.active, one));
                    let v = smt.const_bits(e.value.clone());
                    pins.push(smt.eq(et.value, v));
                    let m = smt.const_bits(e.mask.clone());
                    pins.push(smt.eq(et.mask, m));
                    let n = smt.const_u64(e.next as u64, sbits);
                    pins.push(smt.eq(et.next, n));
                }
                None => {
                    let zero = smt.const_u64(0, 1);
                    pins.push(smt.eq(et.active, zero));
                }
            }
        }
        let e = smt.const_u64(conc.ext[s] as u64, ebits);
        pins.push(smt.eq(terms.ext_sel[s], e));
    }
    pins
}

/// Re-encodes a concrete skeleton as constant terms (for the fresh-solver
/// verification path kept for differential testing and benchmarking).
pub fn concrete_terms(smt: &mut Smt, shape: &Shape, conc: &ConcreteSkel) -> SkelTerms {
    let sbits = shape.state_bits();
    let ebits = shape.ext_bits();
    let mut alloc = Vec::new();
    let mut entries = Vec::new();
    let mut ext_sel = Vec::new();
    for s in 0..shape.state_count() {
        alloc.push(
            conc.alloc[s]
                .iter()
                .map(|&b| smt.const_u64(b as u64, 1))
                .collect::<Vec<Term>>(),
        );
        let mut row = Vec::new();
        for e in &conc.entries[s] {
            row.push(EntryTerms {
                active: smt.const_u64(1, 1),
                value: smt.const_bits(e.value.clone()),
                mask: smt.const_bits(e.mask.clone()),
                next: smt.const_u64(e.next as u64, sbits),
            });
        }
        entries.push(row);
        ext_sel.push(smt.const_u64(conc.ext[s] as u64, ebits));
    }
    SkelTerms {
        alloc,
        entries,
        ext_sel,
    }
}

/// Total active entries in a concrete skeleton.
pub fn entry_count(conc: &ConcreteSkel) -> usize {
    conc.entries.iter().map(Vec::len).sum()
}

/// Stages used by a concrete skeleton (max + 1 over reachable states).
pub fn stages_used(conc: &ConcreteSkel) -> usize {
    conc.stage.iter().copied().max().unwrap_or(0) + 1
}

/// Converts a concrete skeleton into a [`TcamProgram`] over the *original*
/// field table (widths/varbit restored by construction — entries reference
/// field ids only).
pub fn to_program(shape: &Shape, conc: &ConcreteSkel, device: &DeviceProfile) -> TcamProgram {
    let s_count = shape.state_count();
    let acc = shape.accept_code();
    let rej = shape.reject_code();

    let mut states = Vec::with_capacity(s_count);
    for s in 0..s_count {
        // Key parts: allocated groups in canonical order.
        let mut key = Vec::new();
        let mut ranges = Vec::new(); // canonical ranges kept
        for (g, grp) in shape.groups.iter().enumerate() {
            if conc.alloc[s][g] {
                key.push(match grp.source {
                    GroupSource::Slice { field, start, end } => {
                        KeyPart::Slice { field, start, end }
                    }
                    GroupSource::Lookahead { start, end } => KeyPart::Lookahead { start, end },
                });
                ranges.push((grp.offset, grp.offset + grp.width));
            }
        }
        let project = |b: &BitString| {
            let mut out = BitString::empty();
            for &(lo, hi) in &ranges {
                out = out.concat(&b.slice(lo, hi));
            }
            out
        };
        let entries = conc.entries[s]
            .iter()
            .map(|e| {
                let next = if e.next == acc {
                    HwNext::Accept
                } else if e.next >= rej {
                    HwNext::Reject
                } else {
                    HwNext::State(HwStateId(e.next))
                };
                let extracts = match e.next {
                    t if t >= 1 && t <= shape.slots.len() && conc.ext[t] != 0 => {
                        shape.slots[conc.ext[t] - 1].clone()
                    }
                    _ => Vec::new(),
                };
                HwEntry {
                    pattern: ph_bits::Ternary::new(project(&e.value), project(&e.mask)),
                    extracts,
                    next,
                }
            })
            .collect();
        let name = if s == 0 {
            "entry".to_string()
        } else if s <= shape.slots.len() {
            format!("slot{}", s)
        } else {
            format!("spare{}", s - shape.slots.len())
        };
        states.push(HwState {
            name,
            stage: conc.stage[s],
            key,
            entries,
        });
    }
    TcamProgram {
        device: device.clone(),
        states,
        start: HwStateId(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reduce::reduce_spec;
    use ph_p4f::parse_parser;

    fn eth_spec() -> ParserSpec {
        parse_parser(
            r#"
            header e_t { pad : 8; ty : 4; }
            header a_t { v : 4; }
            parser {
                state start {
                    extract(e_t);
                    transition select(e_t.ty) {
                        7 : pa;
                        default : accept;
                    }
                }
                state pa { extract(a_t); transition accept; }
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn shape_counts() {
        let red = reduce_spec(&eth_spec(), OptConfig::all()).unwrap();
        let shape = build_shape(
            &red,
            &DeviceProfile::tofino(),
            OptConfig::all(),
            false,
            None,
        )
        .unwrap();
        // Slots: the [pad, ty] run (split after the keyed ty) and [a.v].
        assert_eq!(shape.slots.len(), 2);
        assert_eq!(shape.slots[0].len(), 2);
        assert_eq!(shape.state_count(), 3);
        assert_eq!(shape.groups.len(), 1); // only ty's 4 bits are keyed
        assert_eq!(shape.canon_width, 4);
        assert!(shape.opt3);
        // Candidates: zero + the single spec value 7.
        let cands = shape.value_candidates.as_ref().unwrap();
        assert_eq!(cands.len(), 2);
        assert_eq!(cands[1].to_u64(), 7);
    }

    #[test]
    fn naive_shape_is_much_bigger() {
        let red_all = reduce_spec(&eth_spec(), OptConfig::all()).unwrap();
        let red_none = reduce_spec(&eth_spec(), OptConfig::none()).unwrap();
        let dev = DeviceProfile::tofino();
        let s1 = build_shape(&red_all, &dev, OptConfig::all(), false, None).unwrap();
        let s0 = build_shape(&red_none, &dev, OptConfig::none(), false, None).unwrap();
        assert!(s0.groups.len() > s1.groups.len());
        assert!(s0.value_candidates.is_none());

        let mut smt1 = Smt::new();
        let v1 = build_vars(&mut smt1, &s1, &dev);
        let mut smt0 = Smt::new();
        let v0 = build_vars(&mut smt0, &s0, &dev);
        assert!(
            v0.search_space_bits > 2 * v1.search_space_bits,
            "naive {} vs opt {}",
            v0.search_space_bits,
            v1.search_space_bits
        );
    }

    #[test]
    fn vars_are_satisfiable() {
        let red = reduce_spec(&eth_spec(), OptConfig::all()).unwrap();
        for dev in [DeviceProfile::tofino(), DeviceProfile::ipu()] {
            let shape = build_shape(&red, &dev, OptConfig::all(), false, None).unwrap();
            let mut smt = Smt::new();
            let vars = build_vars(&mut smt, &shape, &dev);
            assert!(
                smt.check().is_sat(),
                "structural constraints unsat for {}",
                dev.name
            );
            let conc = extract_model(&mut smt, &shape, &vars);
            assert_eq!(conc.entries.len(), shape.state_count());
        }
    }

    #[test]
    fn model_roundtrip_to_program() {
        let red = reduce_spec(&eth_spec(), OptConfig::all()).unwrap();
        let dev = DeviceProfile::tofino();
        let shape = build_shape(&red, &dev, OptConfig::all(), false, None).unwrap();
        let mut smt = Smt::new();
        let vars = build_vars(&mut smt, &shape, &dev);
        // Force one entry active in the entry state with next = slot 1.
        let one = smt.const_u64(1, 1);
        let act = smt.eq(vars.terms.entries[0][0].active, one);
        smt.assert(act);
        let sb = shape.state_bits();
        let t1 = smt.const_u64(1, sb);
        let nx = smt.eq(vars.terms.entries[0][0].next, t1);
        smt.assert(nx);
        assert!(smt.check().is_sat());
        let conc = extract_model(&mut smt, &shape, &vars);
        let prog = to_program(&shape, &conc, &dev);
        assert_eq!(prog.states.len(), 3);
        assert_eq!(prog.states[0].entries[0].next, HwNext::State(HwStateId(1)));
        // Entry into slot 1 extracts the slot's field.
        assert_eq!(prog.states[0].entries[0].extracts, shape.slots[0]);
    }

    #[test]
    fn loopy_shape_dedups_slots() {
        let spec = parse_parser(
            r#"
            header m_t { bos : 1; label : 3; }
            parser {
                state start {
                    extract(m_t);
                    transition select(m_t.bos) {
                        0 : start;
                        default : accept;
                    }
                }
            }
            "#,
        )
        .unwrap();
        let red = reduce_spec(&spec, OptConfig::all()).unwrap();
        let shape =
            build_shape(&red, &DeviceProfile::tofino(), OptConfig::all(), true, None).unwrap();
        assert_eq!(shape.slots.len(), 2); // bos + label once
        assert!(shape.loopy);
    }

    #[test]
    fn spares_added_for_wide_keys() {
        let spec = parse_parser(
            r#"
            header w_t { k : 16; }
            parser {
                state start {
                    extract(w_t);
                    transition select(w_t.k) {
                        0x1234 : accept;
                        default : reject;
                    }
                }
            }
            "#,
        )
        .unwrap();
        let red = reduce_spec(&spec, OptConfig::all()).unwrap();
        let dev = DeviceProfile::parameterized(8, 32, 128);
        let shape = build_shape(&red, &dev, OptConfig::all(), false, None).unwrap();
        assert_eq!(shape.spares, 1);
        let dev4 = DeviceProfile::parameterized(4, 32, 128);
        let shape4 = build_shape(&red, &dev4, OptConfig::all(), false, None).unwrap();
        assert_eq!(shape4.spares, 3);
    }
}
