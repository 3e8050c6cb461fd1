//! DPParserGen — the dynamic-programming parser generator of Gibb et
//! al. [33], reconstructed with its published input restrictions (§7):
//!
//! * transition patterns must be **exact values** (no `value &&& mask`
//!   wildcards in the input program);
//! * `accept` may only be reached through the default rule, never on a
//!   specific value;
//! * a state's transition key must come from fields extracted **in that
//!   state** (and lookahead is unsupported);
//! * the target must be a single-TCAM-table architecture.
//!
//! Pipeline: (1) bottom-up clustering of adjacent single-parent states when
//! the merged transition key fits the device window and merging lowers the
//! local entry count; (2) direct translation; (3) fixed left-to-right
//! transition-key splitting when a cluster's key exceeds the device's key
//! width (an exact-value trie — correct because inputs are exact-valued,
//! but order-blind and therefore sometimes wasteful, cf. Fig. 4 V1);
//! (4) greedy in-order entry merging.  Steps (1), (3) and (4) are the
//! heuristics whose suboptimality Table 4 quantifies.

use crate::merge::greedy_merge_entries;
use crate::translate::direct_translate;
use crate::CompileError;
use ph_bits::Ternary;
use ph_hw::{check_program, Arch, DeviceProfile, HwEntry, HwNext, HwState, HwStateId, TcamProgram};
use ph_ir::{KeyPart, NextState, ParserSpec};

/// Compiles `spec` for a single-TCAM-table device with DPParserGen.
pub fn compile_dp(spec: &ParserSpec, device: &DeviceProfile) -> Result<TcamProgram, CompileError> {
    if device.arch != Arch::SingleTable {
        return Err(CompileError::Unsupported(
            "DPParserGen only targets single-TCAM-table architectures".into(),
        ));
    }
    check_restrictions(spec)?;

    // Phase 1: direct translation.
    let mut prog = direct_translate(spec, device);

    // Phase 2: cluster adjacent hardware states; the child's key becomes
    // lookahead bits (Gibb's "window"), bounded by the device's window size.
    cluster_hw_states(&mut prog, spec, device);

    // Phase 3: split wide keys left-to-right.
    split_wide_keys(&mut prog, device.key_limit);

    // Phase 4: in-order entry merging.
    for st in &mut prog.states {
        greedy_merge_entries(&mut st.entries);
    }

    let violations = check_program(&prog, &spec.fields);
    if violations.is_empty() {
        Ok(prog)
    } else {
        Err(CompileError::Resources(violations))
    }
}

fn check_restrictions(spec: &ParserSpec) -> Result<(), CompileError> {
    for st in &spec.states {
        for kp in &st.key {
            match *kp {
                KeyPart::Lookahead { .. } => {
                    return Err(CompileError::Unsupported(format!(
                        "DPParserGen: state {} uses lookahead",
                        st.name
                    )))
                }
                KeyPart::Slice { field, .. } => {
                    if !st.extracts.contains(&field) {
                        return Err(CompileError::Unsupported(format!(
                            "DPParserGen: state {} keys on a field extracted elsewhere",
                            st.name
                        )));
                    }
                }
            }
        }
        for tr in &st.transitions {
            if tr.pattern.wildcard_bits() != 0 {
                return Err(CompileError::Unsupported(format!(
                    "DPParserGen: state {} uses a wildcard pattern",
                    st.name
                )));
            }
            if tr.next == NextState::Accept {
                return Err(CompileError::Unsupported(format!(
                    "DPParserGen: state {} transitions to accept on a specific value",
                    st.name
                )));
            }
        }
    }
    Ok(())
}

/// In-degree of every hardware state (counting one synthetic edge into the
/// start state).
fn hw_in_degrees(prog: &TcamProgram) -> Vec<usize> {
    let mut deg = vec![0usize; prog.states.len()];
    deg[prog.start.0] += 1;
    for st in &prog.states {
        for e in &st.entries {
            if let HwNext::State(n) = e.next {
                deg[n.0] += 1;
            }
        }
    }
    deg
}

/// Converts a child state's key so it can be evaluated from the *parent*
/// state, before the edge's extraction has happened: slices of fields that
/// the edge extracts become lookahead bits at their known offsets; existing
/// lookahead shifts past the edge's extraction.  Returns `None` when the key
/// references a field not extracted on the edge, when a varbit field makes
/// offsets unknowable, or when the converted lookahead exceeds the window.
fn convert_child_key(
    spec: &ParserSpec,
    edge_extracts: &[ph_ir::FieldId],
    child_key: &[KeyPart],
    device: &DeviceProfile,
) -> Option<Vec<KeyPart>> {
    // Offsets of edge-extracted fields from the cursor at match time.
    let mut offset = std::collections::HashMap::new();
    let mut cursor = 0usize;
    for &f in edge_extracts {
        if spec.field(f).kind != ph_ir::FieldKind::Fixed {
            return None;
        }
        offset.insert(f, cursor);
        cursor += spec.field(f).width;
    }
    let mut out = Vec::with_capacity(child_key.len());
    for kp in child_key {
        let conv = match *kp {
            KeyPart::Slice { field, start, end } => {
                let base = *offset.get(&field)?;
                KeyPart::Lookahead {
                    start: base + start,
                    end: base + end,
                }
            }
            KeyPart::Lookahead { start, end } => KeyPart::Lookahead {
                start: cursor + start,
                end: cursor + end,
            },
        };
        if let KeyPart::Lookahead { end, .. } = conv {
            if end > device.lookahead_limit {
                return None;
            }
        }
        out.push(conv);
    }
    Some(out)
}

/// Bottom-up clustering at the hardware level: a single-parent child merges
/// into its parent when the child's key converts into the parent's lookahead
/// window, the merged key fits the device key limit, and the local entry
/// count does not increase.  The dynamic program's greedy fixpoint.
fn cluster_hw_states(prog: &mut TcamProgram, spec: &ParserSpec, device: &DeviceProfile) {
    loop {
        let deg = hw_in_degrees(prog);
        let mut plan: Option<(usize, usize, Vec<KeyPart>)> = None;
        'outer: for (pi, p) in prog.states.iter().enumerate() {
            // Distinct child states this parent reaches.
            let mut children: Vec<usize> = p
                .entries
                .iter()
                .filter_map(|e| match e.next {
                    HwNext::State(n) => Some(n.0),
                    _ => None,
                })
                .collect();
            children.sort_unstable();
            children.dedup();
            for c in children {
                if c == pi || deg[c] != 1 || c == prog.start.0 {
                    continue;
                }
                // All edges into the child carry the same extraction list by
                // construction; take it from the first one.
                let edge = p
                    .entries
                    .iter()
                    .find(|e| e.next == HwNext::State(HwStateId(c)))
                    .expect("child listed");
                let Some(conv) =
                    convert_child_key(spec, &edge.extracts, &prog.states[c].key, device)
                else {
                    continue;
                };
                let merged_kw = p.key_width() + prog.states[c].key_width();
                if merged_kw > device.key_limit {
                    continue;
                }
                // Local benefit test.
                let edges_into_child = p
                    .entries
                    .iter()
                    .filter(|e| e.next == HwNext::State(HwStateId(c)))
                    .count();
                let c_entries = prog.states[c].entries.len();
                let merged_cost = p.entries.len() - edges_into_child + edges_into_child * c_entries;
                if merged_cost <= p.entries.len() + c_entries {
                    plan = Some((pi, c, conv));
                    break 'outer;
                }
            }
        }
        let Some((pi, ci, conv_key)) = plan else {
            return;
        };
        merge_hw_pair(prog, pi, ci, conv_key);
    }
}

/// Performs the planned merge of child `ci` into parent `pi`, then prunes
/// unreachable states.
fn merge_hw_pair(prog: &mut TcamProgram, pi: usize, ci: usize, conv_key: Vec<KeyPart>) {
    let child = prog.states[ci].clone();
    let ckw = child.key_width();
    let parent = &prog.states[pi];

    let mut entries = Vec::new();
    for e in &parent.entries {
        if e.next == HwNext::State(HwStateId(ci)) {
            for ce in &child.entries {
                entries.push(HwEntry {
                    pattern: e.pattern.concat(&ce.pattern),
                    extracts: [e.extracts.clone(), ce.extracts.clone()].concat(),
                    next: ce.next,
                });
            }
            // No match in the child means hardware reject; preserve it.
            if child
                .entries
                .last()
                .is_none_or(|l| l.pattern.wildcard_bits() != l.pattern.width())
            {
                entries.push(HwEntry {
                    pattern: e.pattern.concat(&Ternary::any(ckw)),
                    extracts: e.extracts.clone(),
                    next: HwNext::Reject,
                });
            }
        } else {
            entries.push(HwEntry {
                pattern: e.pattern.concat(&Ternary::any(ckw)),
                extracts: e.extracts.clone(),
                next: e.next,
            });
        }
    }

    let name = format!("{}+{}", prog.states[pi].name, child.name);
    let key = [prog.states[pi].key.clone(), conv_key].concat();
    prog.states[pi] = HwState {
        name,
        stage: 0,
        key,
        entries,
    };
    prog.prune_unreachable();
}

/// Splits every state whose key exceeds `limit` into a left-to-right
/// exact-value trie over `limit`-bit chunks.
fn split_wide_keys(prog: &mut TcamProgram, limit: usize) {
    if limit == 0 {
        return;
    }
    let mut i = 0;
    while i < prog.states.len() {
        if prog.states[i].key_width() > limit {
            split_one_state(prog, i, limit);
        }
        i += 1;
    }
}

/// Slices a key-part list to bit range `[start, end)` of the concatenated key.
fn slice_key(parts: &[KeyPart], start: usize, end: usize) -> Vec<KeyPart> {
    let mut out = Vec::new();
    let mut off = 0;
    for kp in parts {
        let w = kp.width();
        let lo = start.max(off);
        let hi = end.min(off + w);
        if lo < hi {
            let (rel_lo, rel_hi) = (lo - off, hi - off);
            out.push(match *kp {
                KeyPart::Slice {
                    field, start: s, ..
                } => KeyPart::Slice {
                    field,
                    start: s + rel_lo,
                    end: s + rel_hi,
                },
                KeyPart::Lookahead { start: s, .. } => KeyPart::Lookahead {
                    start: s + rel_lo,
                    end: s + rel_hi,
                },
            });
        }
        off += w;
    }
    out
}

/// Expansion budget for [`disambiguate_chunk`].
const MAX_CHUNK_EXPANSION: usize = 512;

/// Rewrites entries so their chunk-`[cs, ce)` patterns are pairwise
/// disjoint-or-equal, by enumerating the chunk wildcards of offending
/// entries.  Aborts (returns the input unchanged) past the expansion budget;
/// the resulting too-wide state then surfaces as a resource violation, the
/// honest DPParserGen failure mode.
fn disambiguate_chunk(alive: Vec<HwEntry>, cs: usize, ce: usize) -> Vec<HwEntry> {
    let overlapping = |list: &[HwEntry]| -> bool {
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let a = list[i].pattern.slice(cs, ce);
                let b = list[j].pattern.slice(cs, ce);
                if a != b && a.overlaps(&b) {
                    return true;
                }
            }
        }
        false
    };
    if !overlapping(&alive) {
        return alive;
    }
    let total: u128 = alive
        .iter()
        .map(|e| e.pattern.slice(cs, ce).match_count())
        .sum();
    if total > MAX_CHUNK_EXPANSION as u128 {
        return alive;
    }
    let mut out = Vec::new();
    for e in alive {
        let chunk = e.pattern.slice(cs, ce);
        if chunk.wildcard_bits() == 0 {
            out.push(e);
            continue;
        }
        let prefix = e.pattern.slice(0, cs);
        let suffix = e.pattern.slice(ce, e.pattern.width());
        for v in chunk.enumerate() {
            out.push(HwEntry {
                pattern: prefix.concat(&Ternary::exact(v)).concat(&suffix),
                extracts: e.extracts.clone(),
                next: e.next,
            });
        }
    }
    out
}

/// Replaces state `idx` with a chunked trie.  The state's entries must be
/// exact-valued except for a trailing catch-all (guaranteed by the input
/// restrictions plus direct translation).
fn split_one_state(prog: &mut TcamProgram, idx: usize, limit: usize) {
    let st = prog.states[idx].clone();
    let kw = st.key_width();
    let chunks: Vec<(usize, usize)> = (0..kw)
        .step_by(limit)
        .map(|s| (s, (s + limit).min(kw)))
        .collect();

    // Separate the trailing catch-all (the default) from exact rules.
    let mut rules: Vec<HwEntry> = st.entries.clone();
    let default = match rules.last() {
        Some(e) if e.pattern.wildcard_bits() == e.pattern.width() => rules.pop().unwrap(),
        _ => HwEntry::catch_all(kw, HwNext::Reject),
    };

    // Recursive trie construction.  Returns the id of the state testing
    // chunk `depth` for the given alive rule set.
    #[allow(clippy::too_many_arguments)]
    fn build(
        prog: &mut TcamProgram,
        base_name: &str,
        key_parts: &[KeyPart],
        chunks: &[(usize, usize)],
        depth: usize,
        alive: Vec<HwEntry>,
        default: &HwEntry,
        reuse: Option<usize>,
    ) -> usize {
        let (cs, ce) = chunks[depth];
        let chunk_key = slice_key(key_parts, cs, ce);
        let last = depth + 1 == chunks.len();
        let mut entries = Vec::new();
        if last {
            for e in alive {
                entries.push(HwEntry {
                    pattern: e.pattern.slice(cs, ce),
                    extracts: e.extracts,
                    next: e.next,
                });
            }
            entries.push(HwEntry {
                pattern: Ternary::any(ce - cs),
                extracts: default.extracts.clone(),
                next: default.next,
            });
        } else {
            // Group alive rules by their chunk pattern, preserving order of
            // first appearance.  The trie is only sound when group patterns
            // are pairwise disjoint-or-equal; partially overlapping chunk
            // patterns (which clustering's wildcard tails can create) are
            // expanded to exact values first — the classic TCAM blowup.
            let alive = disambiguate_chunk(alive, cs, ce);
            let mut groups: Vec<(Ternary, Vec<HwEntry>)> = Vec::new();
            for e in &alive {
                let cpat = e.pattern.slice(cs, ce);
                match groups.iter_mut().find(|(g, _)| *g == cpat) {
                    Some((_, v)) => v.push(e.clone()),
                    None => groups.push((cpat, vec![e.clone()])),
                }
            }
            for (cpat, members) in groups {
                let child = build(
                    prog,
                    base_name,
                    key_parts,
                    chunks,
                    depth + 1,
                    members,
                    default,
                    None,
                );
                entries.push(HwEntry {
                    pattern: cpat,
                    extracts: Vec::new(),
                    next: HwNext::State(HwStateId(child)),
                });
            }
            entries.push(HwEntry {
                pattern: Ternary::any(ce - cs),
                extracts: default.extracts.clone(),
                next: default.next,
            });
        }
        let state = HwState {
            name: format!("{base_name}~c{depth}"),
            stage: 0,
            key: chunk_key,
            entries,
        };
        match reuse {
            Some(i) => {
                prog.states[i] = state;
                i
            }
            None => {
                prog.states.push(state);
                prog.states.len() - 1
            }
        }
    }

    // Feasibility pre-pass: abort the split entirely if any node would be
    // left with partially overlapping edges even after expansion (the state
    // then keeps its wide key and surfaces as a resource violation).
    fn feasible(entries: &[HwEntry], chunks: &[(usize, usize)], depth: usize) -> bool {
        if depth + 1 == chunks.len() {
            return true;
        }
        let (cs, ce) = chunks[depth];
        let list = disambiguate_chunk(entries.to_vec(), cs, ce);
        for i in 0..list.len() {
            for j in (i + 1)..list.len() {
                let a = list[i].pattern.slice(cs, ce);
                let b = list[j].pattern.slice(cs, ce);
                if a != b && a.overlaps(&b) {
                    return false;
                }
            }
        }
        let mut groups: Vec<(Ternary, Vec<HwEntry>)> = Vec::new();
        for e in &list {
            let cpat = e.pattern.slice(cs, ce);
            match groups.iter_mut().find(|(g, _)| *g == cpat) {
                Some((_, v)) => v.push(e.clone()),
                None => groups.push((cpat, vec![e.clone()])),
            }
        }
        groups
            .iter()
            .all(|(_, members)| feasible(members, chunks, depth + 1))
    }
    if !feasible(&rules, &chunks, 0) {
        return;
    }

    let name = st.name.clone();
    let key = st.key.clone();
    build(prog, &name, &key, &chunks, 0, rules, &default, Some(idx));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_bits::BitString;
    use ph_hw::run_program;
    use ph_ir::{simulate, ParseStatus};
    use ph_p4f::parse_parser;

    fn assert_equiv(spec: &ph_ir::ParserSpec, prog: &TcamProgram, rounds: usize) {
        let mut rng = ph_bits::Rng::seed_from_u64(5);
        for _ in 0..rounds {
            let len = rng.gen_range(0..=24usize);
            let mut input = BitString::zeros(len);
            for i in 0..len {
                input.set(i, rng.gen_bool(0.5));
            }
            let s = simulate(spec, &input, 32);
            if s.status == ParseStatus::IterationBudget {
                continue;
            }
            let h = run_program(prog, &spec.fields, &input, 64);
            assert_eq!(s.status, h.status, "input {input}");
            assert_eq!(s.dict, h.dict, "input {input}");
        }
    }

    const CHAIN: &str = r#"
        header a_t { v : 4; }
        header b_t { v : 4; }
        header c_t { v : 4; }
        parser {
            state start {
                extract(a_t);
                transition select(a_t.v) {
                    1 : sb;
                    default : reject;
                }
            }
            state sb {
                extract(b_t);
                transition select(b_t.v) {
                    2 : sc;
                    default : reject;
                }
            }
            state sc { extract(c_t); transition accept; }
        }
    "#;

    #[test]
    fn dp_clusters_chain_and_is_correct() {
        let spec = parse_parser(CHAIN).unwrap();
        let prog = compile_dp(&spec, &DeviceProfile::tofino()).unwrap();
        assert_equiv(&spec, &prog, 600);
        // Clustering should beat the naive translation's entry count.
        let naive = direct_translate(&spec, &DeviceProfile::tofino());
        assert!(prog.entry_count() <= naive.entry_count());
    }

    #[test]
    fn dp_rejects_wildcards() {
        let spec = parse_parser(
            r#"header h { v : 4; }
            parser { state start { extract(h); transition select(h.v) {
                0b1**0 : reject; default : accept; } } }"#,
        )
        .unwrap();
        let err = compile_dp(&spec, &DeviceProfile::tofino()).unwrap_err();
        assert!(err.to_string().contains("wildcard"));
    }

    #[test]
    fn dp_rejects_value_accept() {
        let spec = parse_parser(
            r#"header h { v : 4; }
            parser { state start { extract(h); transition select(h.v) {
                0 : accept; default : reject; } } }"#,
        )
        .unwrap();
        let err = compile_dp(&spec, &DeviceProfile::tofino()).unwrap_err();
        assert!(err.to_string().contains("accept on a specific value"));
    }

    #[test]
    fn dp_rejects_cross_state_keys() {
        let spec = parse_parser(
            r#"header a_t { v : 4; }
            header b_t { v : 4; }
            parser {
                state start {
                    extract(a_t);
                    transition select(a_t.v) { 1 : sb; default : reject; }
                }
                state sb {
                    extract(b_t);
                    transition select(a_t.v) { 1 : sc; default : reject; }
                }
                state sc { transition accept; }
            }"#,
        )
        .unwrap();
        let err = compile_dp(&spec, &DeviceProfile::tofino()).unwrap_err();
        assert!(err.to_string().contains("extracted elsewhere"));
    }

    #[test]
    fn dp_rejects_pipelined_targets() {
        let spec = parse_parser(CHAIN).unwrap();
        let err = compile_dp(&spec, &DeviceProfile::ipu()).unwrap_err();
        assert!(err.to_string().contains("single-TCAM-table"));
    }

    #[test]
    fn dp_splits_wide_keys_correctly() {
        // 8-bit key on a 4-bit-key device.
        let spec = parse_parser(
            r#"header h { v : 8; }
            header x_t { v : 4; }
            parser {
                state start {
                    extract(h);
                    transition select(h.v) {
                        0x11 : px; 0x23 : px; 0x45 : px;
                        default : reject;
                    }
                }
                state px { extract(x_t); transition accept; }
            }"#,
        )
        .unwrap();
        let device = DeviceProfile::parameterized(4, 32, 128);
        let prog = compile_dp(&spec, &device).unwrap();
        assert_equiv(&spec, &prog, 800);
        // Every state's key now fits.
        for st in &prog.states {
            assert!(st.key_width() <= 4, "state {} key too wide", st.name);
        }
    }

    #[test]
    fn slice_key_splits_parts() {
        let parts = vec![
            KeyPart::Slice {
                field: ph_ir::FieldId(0),
                start: 0,
                end: 6,
            },
            KeyPart::Lookahead { start: 2, end: 6 },
        ];
        let s = slice_key(&parts, 4, 8);
        assert_eq!(
            s,
            vec![
                KeyPart::Slice {
                    field: ph_ir::FieldId(0),
                    start: 4,
                    end: 6
                },
                KeyPart::Lookahead { start: 2, end: 4 },
            ]
        );
    }
}
