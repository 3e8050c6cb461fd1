//! The semantic-preserving rewrite rules of Fig. 21.
//!
//! These model how developers (re)write the *same* parser differently:
//! redundant or unreachable entries left behind (R1/R2), entries split into
//! special cases or merged with masks (R3), transition keys checked in
//! pieces (R4), and extraction spread over more or fewer states (R5).
//! ParserHawk's output must be invariant under all of them; rewrite-rule
//! compilers are not (that is §3.2's point).
//!
//! Every rule preserves `Spec(I)` exactly; the property tests at the bottom
//! check each one against the reference simulator on random inputs.

use ph_bits::Ternary;
use ph_ir::{KeyPart, NextState, ParserSpec, State, StateId, Transition};

/// +R1: duplicate each state's first rule (a redundant entry that can never
/// fire because the identical earlier rule wins).
pub fn r1_add_redundant(spec: &ParserSpec) -> ParserSpec {
    let mut out = spec.clone();
    for st in out.states.iter_mut() {
        if let Some(first) = st.transitions.first().cloned() {
            st.transitions.insert(1, first);
        }
    }
    out
}

/// −R1: drop rules that an earlier rule with the same target already
/// covers.
pub fn r1_remove_redundant(spec: &ParserSpec) -> ParserSpec {
    let mut out = spec.clone();
    for st in out.states.iter_mut() {
        let mut kept: Vec<Transition> = Vec::new();
        for tr in st.transitions.drain(..) {
            let dead = kept
                .iter()
                .any(|k| k.next == tr.next && k.pattern.covers(&tr.pattern));
            if !dead {
                kept.push(tr);
            }
        }
        st.transitions = kept;
    }
    out
}

/// +R2: append an unreachable rule — same pattern as the state's first
/// rule but a conflicting target; first-match makes it dead code.
pub fn r2_add_unreachable(spec: &ParserSpec) -> ParserSpec {
    let mut out = spec.clone();
    for st in out.states.iter_mut() {
        if let Some(first) = st.transitions.first().cloned() {
            let conflicting = Transition {
                pattern: first.pattern.clone(),
                next: if first.next == NextState::Reject {
                    NextState::Accept
                } else {
                    NextState::Reject
                },
            };
            st.transitions.push(conflicting);
        }
    }
    out
}

/// +R3: split each rule containing a wildcard bit into its two halves
/// (bit fixed to 0 and to 1), keeping priority order.
pub fn r3_split_entries(spec: &ParserSpec) -> ParserSpec {
    let mut out = spec.clone();
    for st in out.states.iter_mut() {
        let mut rules = Vec::new();
        for tr in st.transitions.drain(..) {
            let wc = (0..tr.pattern.width()).find(|&i| !tr.pattern.mask().get(i));
            match wc {
                Some(bit) => {
                    for v in [false, true] {
                        let mut value = tr.pattern.value().clone();
                        let mut mask = tr.pattern.mask().clone();
                        value.set(bit, v);
                        mask.set(bit, true);
                        rules.push(Transition {
                            pattern: Ternary::new(value, mask),
                            next: tr.next,
                        });
                    }
                }
                None => rules.push(tr),
            }
        }
        st.transitions = rules;
    }
    out
}

/// −R3: merge adjacent same-target rules whose patterns combine exactly.
pub fn r3_merge_entries(spec: &ParserSpec) -> ParserSpec {
    let mut out = spec.clone();
    for st in out.states.iter_mut() {
        let mut changed = true;
        while changed {
            changed = false;
            let mut i = 0;
            while i + 1 < st.transitions.len() {
                let (a, b) = (&st.transitions[i], &st.transitions[i + 1]);
                if a.next == b.next {
                    if let Some(m) = a.pattern.merge(&b.pattern) {
                        st.transitions[i].pattern = m;
                        st.transitions.remove(i + 1);
                        changed = true;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    out
}

/// Slices a spec key-part list to bit range `[start, end)`.
fn slice_key(parts: &[KeyPart], start: usize, end: usize) -> Vec<KeyPart> {
    let mut out = Vec::new();
    let mut off = 0;
    for kp in parts {
        let w = kp.width();
        let lo = start.max(off);
        let hi = end.min(off + w);
        if lo < hi {
            let (rl, rh) = (lo - off, hi - off);
            out.push(match *kp {
                KeyPart::Slice {
                    field, start: s, ..
                } => KeyPart::Slice {
                    field,
                    start: s + rl,
                    end: s + rh,
                },
                KeyPart::Lookahead { start: s, .. } => KeyPart::Lookahead {
                    start: s + rl,
                    end: s + rh,
                },
            });
        }
        off += w;
    }
    out
}

/// +R4: split every wide-keyed state with exact-value rules into a
/// two-level check — high chunk first, then per-value low-chunk states.
/// States whose rules are not exact-valued are left alone.
pub fn r4_split_key(spec: &ParserSpec, chunk: usize) -> ParserSpec {
    let mut out = spec.clone();
    let n0 = out.states.len();
    for si in 0..n0 {
        let st = out.states[si].clone();
        let kw = st.key_width();
        if kw <= chunk || st.transitions.is_empty() {
            continue;
        }
        if st
            .transitions
            .iter()
            .any(|t| t.pattern.wildcard_bits() != 0)
        {
            continue;
        }
        let hi = slice_key(&st.key, 0, chunk);
        let lo = slice_key(&st.key, chunk, kw);

        // Group rules by high-chunk value, preserving order.
        let mut groups: Vec<(Ternary, Vec<Transition>)> = Vec::new();
        for tr in &st.transitions {
            let hpat = tr.pattern.slice(0, chunk);
            let lpat = tr.pattern.slice(chunk, kw);
            let lowered = Transition {
                pattern: lpat,
                next: tr.next,
            };
            match groups.iter_mut().find(|(g, _)| *g == hpat) {
                Some((_, v)) => v.push(lowered),
                None => groups.push((hpat, vec![lowered])),
            }
        }
        // One low-check state per group.
        let mut hi_rules = Vec::new();
        for (hpat, rules) in groups {
            let id = StateId(out.states.len());
            out.states.push(State {
                name: format!("{}~lo{}", st.name, out.states.len()),
                extracts: Vec::new(),
                key: lo.clone(),
                transitions: rules,
                default: st.default,
            });
            hi_rules.push(Transition {
                pattern: hpat,
                next: NextState::State(id),
            });
        }
        let top = &mut out.states[si];
        top.key = hi;
        top.transitions = hi_rules;
        // default stays.
    }
    out
}

/// +R5: split every multi-extraction or keyed state into an extraction
/// state followed by a key-check state.
pub fn r5_split_states(spec: &ParserSpec) -> ParserSpec {
    let mut out = spec.clone();
    let n0 = out.states.len();
    for si in 0..n0 {
        let st = out.states[si].clone();
        if st.extracts.is_empty() || (st.key.is_empty() && st.transitions.is_empty()) {
            continue;
        }
        let id = StateId(out.states.len());
        out.states.push(State {
            name: format!("{}~chk", st.name),
            extracts: Vec::new(),
            key: st.key.clone(),
            transitions: st.transitions.clone(),
            default: st.default,
        });
        let top = &mut out.states[si];
        top.key = Vec::new();
        top.transitions = Vec::new();
        top.default = NextState::State(id);
    }
    out
}

/// −R5 (also Table 3's "+ state merging"): merge every single-parent child
/// reached unconditionally (keyless default) into its parent.
pub fn r5_merge_states(spec: &ParserSpec) -> ParserSpec {
    let mut out = spec.clone();
    loop {
        // in-degrees
        let mut deg = vec![0usize; out.states.len()];
        deg[out.start.0] += 1;
        for st in &out.states {
            for t in &st.transitions {
                if let NextState::State(n) = t.next {
                    deg[n.0] += 1;
                }
            }
            if let NextState::State(n) = st.default {
                deg[n.0] += 1;
            }
        }
        let target = (0..out.states.len()).find(|&i| {
            let st = &out.states[i];
            st.key.is_empty()
                && st.transitions.is_empty()
                && matches!(st.default, NextState::State(c) if c.0 != i && deg[c.0] == 1)
        });
        let Some(pi) = target else { break };
        let NextState::State(ci) = out.states[pi].default else {
            unreachable!()
        };
        let child = out.states[ci.0].clone();
        let parent = &mut out.states[pi];
        parent.extracts.extend(child.extracts);
        parent.key = child.key;
        parent.transitions = child.transitions;
        parent.default = child.default;
        parent.name = format!("{}+{}", parent.name, child.name);
        out = ph_ir::analysis::prune_unreachable(&out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use ph_bits::BitString;
    use ph_ir::{simulate, ParseStatus};

    fn assert_equiv(a: &ParserSpec, b: &ParserSpec, rounds: usize, seed: u64) {
        assert!(b.validate().is_ok());
        let mut rng = ph_bits::Rng::seed_from_u64(seed);
        let max = ph_ir::analysis::max_bits_consumed(a, 12).max(8);
        for _ in 0..rounds {
            let len = rng.gen_range(0..=max + 8);
            let mut input = BitString::zeros(len);
            for i in 0..len {
                input.set(i, rng.gen_bool(0.5));
            }
            let ra = simulate(a, &input, 32);
            let rb = simulate(b, &input, 64);
            if ra.status == ParseStatus::IterationBudget
                || rb.status == ParseStatus::IterationBudget
            {
                continue;
            }
            assert_eq!(ra.status, rb.status, "input {input}");
            assert_eq!(ra.dict, rb.dict, "input {input}");
        }
    }

    #[test]
    fn r1_roundtrip_preserves_semantics() {
        for b in suite::all_base() {
            let plus = r1_add_redundant(&b.spec);
            assert_equiv(&b.spec, &plus, 150, 1);
            let minus = r1_remove_redundant(&plus);
            assert_equiv(&b.spec, &minus, 150, 2);
        }
    }

    #[test]
    fn r1_actually_adds_entries() {
        let b = suite::parse_ethernet();
        let plus = r1_add_redundant(&b.spec);
        let n0: usize = b.spec.states.iter().map(|s| s.transitions.len()).sum();
        let n1: usize = plus.states.iter().map(|s| s.transitions.len()).sum();
        assert!(n1 > n0);
    }

    #[test]
    fn r2_preserves_semantics() {
        for b in suite::all_base() {
            let plus = r2_add_unreachable(&b.spec);
            assert_equiv(&b.spec, &plus, 150, 3);
        }
    }

    #[test]
    fn r3_split_and_merge_preserve_semantics() {
        for b in suite::all_base() {
            let split = r3_split_entries(&b.spec);
            assert_equiv(&b.spec, &split, 150, 4);
            let merged = r3_merge_entries(&b.spec);
            assert_equiv(&b.spec, &merged, 150, 5);
        }
    }

    #[test]
    fn r3_split_expands_wildcards() {
        let spec = ph_p4f::parse_parser(
            r#"header h { v : 4; }
            parser {
                state start {
                    extract(h);
                    transition select(h.v) { 0b1**0 : reject; default : accept; }
                }
            }"#,
        )
        .unwrap();
        let split = r3_split_entries(&spec);
        let n0: usize = spec.states.iter().map(|s| s.transitions.len()).sum();
        let n1: usize = split.states.iter().map(|s| s.transitions.len()).sum();
        assert!(n1 > n0);
        assert_equiv(&spec, &split, 200, 10);
    }

    #[test]
    fn r4_split_key_preserves_semantics() {
        for b in [suite::large_tran_key(), suite::me2_key_splitting()] {
            let split = r4_split_key(&b.spec, 8);
            assert!(split.states.len() > b.spec.states.len());
            assert_equiv(&b.spec, &split, 400, 6);
            // All keys now within 8 bits.
            for st in &split.states {
                assert!(st.key_width() <= 8, "{}", st.name);
            }
        }
    }

    #[test]
    fn r5_split_and_merge_preserve_semantics() {
        for b in suite::all_base() {
            let split = r5_split_states(&b.spec);
            assert_equiv(&b.spec, &split, 150, 7);
        }
        let chain = suite::pure_extraction();
        let merged = r5_merge_states(&chain.spec);
        assert_equiv(&chain.spec, &merged, 150, 8);
        assert_eq!(merged.states.len(), 1, "pure extraction chain merges fully");
    }

    #[test]
    fn unroll_preserves_semantics_on_bounded_inputs() {
        let b = suite::parse_mpls();
        // Depth 24 covers every run on the test inputs (≤ ~56 bits, ≥ 4
        // bits consumed per visit).
        let unrolled = ph_core::cegis::unroll_spec(&b.spec, 24);
        assert!(ph_ir::analysis::is_loop_free(&unrolled));
        assert_equiv(&b.spec, &unrolled, 300, 9);
    }
}
