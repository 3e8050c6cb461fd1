//! The Code Analyzer (front end of Fig. 8): semantic facts about a
//! specification that drive the synthesis optimizations.
//!
//! * which bits of which fields ever appear in transition keys — Opt1
//!   (spec-guided key construction) and Opt5 (bit grouping);
//! * which fields are *irrelevant* (never keyed on) — Opt2 (bit-width
//!   minimization);
//! * the constants present in transition patterns — Opt4 (constant
//!   synthesis);
//! * loop-freedom — Opt7.1 (loop-free vs loop-aware racing);
//! * path-length and input-length bounds — the CEGIS unrolling depth `K`
//!   and the verification bitstream width.

use crate::spec::{FieldId, FieldKind, KeyPart, NextState, ParserSpec, StateId};
use ph_bits::Ternary;
use std::collections::BTreeSet;

/// States reachable from the start state, in discovery order.
pub fn reachable_states(spec: &ParserSpec) -> Vec<StateId> {
    let mut seen = vec![false; spec.states.len()];
    let mut order = Vec::new();
    let mut stack = vec![spec.start];
    while let Some(s) = stack.pop() {
        if seen[s.0] {
            continue;
        }
        seen[s.0] = true;
        order.push(s);
        let st = spec.state(s);
        for t in &st.transitions {
            if let NextState::State(n) = t.next {
                stack.push(n);
            }
        }
        if let NextState::State(n) = st.default {
            stack.push(n);
        }
    }
    order
}

/// The spec without the states the start state cannot reach, the rest
/// renumbered in [`reachable_states`] order.
pub fn prune_unreachable(spec: &ParserSpec) -> ParserSpec {
    let reach = reachable_states(spec);
    let mut map = vec![usize::MAX; spec.states.len()];
    for (new, s) in reach.iter().enumerate() {
        map[s.0] = new;
    }
    let remap = |n: NextState| match n {
        NextState::State(s) => NextState::State(StateId(map[s.0])),
        other => other,
    };
    let states = reach
        .iter()
        .map(|&s| {
            let mut st = spec.state(s).clone();
            for tr in st.transitions.iter_mut() {
                tr.next = remap(tr.next);
            }
            st.default = remap(st.default);
            st
        })
        .collect();
    ParserSpec {
        fields: spec.fields.clone(),
        states,
        start: StateId(map[spec.start.0]),
    }
}

/// True when no cycle is reachable from the start state.
pub fn is_loop_free(spec: &ParserSpec) -> bool {
    #[derive(Clone, Copy, PartialEq)]
    enum Mark {
        White,
        Gray,
        Black,
    }
    fn dfs(spec: &ParserSpec, s: StateId, marks: &mut [Mark]) -> bool {
        marks[s.0] = Mark::Gray;
        let st = spec.state(s);
        let nexts = st
            .transitions
            .iter()
            .map(|t| t.next)
            .chain(std::iter::once(st.default));
        for n in nexts {
            if let NextState::State(n) = n {
                match marks[n.0] {
                    Mark::Gray => return false,
                    Mark::White => {
                        if !dfs(spec, n, marks) {
                            return false;
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        marks[s.0] = Mark::Black;
        true
    }
    let mut marks = vec![Mark::White; spec.states.len()];
    dfs(spec, spec.start, &mut marks)
}

/// Upper bound on bits consumed from the input over at most `max_iters`
/// state visits — the verification bitstream width.
pub fn max_bits_consumed(spec: &ParserSpec, max_iters: usize) -> usize {
    // Bits a single visit of state `s` can consume (extractions at max
    // widths) plus lookahead reach beyond the cursor.
    let consumed: Vec<usize> = spec
        .states
        .iter()
        .map(|st| st.extracts.iter().map(|&f| spec.field(f).width).sum())
        .collect();
    let look: Vec<usize> = spec
        .states
        .iter()
        .map(|st| {
            st.key
                .iter()
                .filter_map(|kp| match *kp {
                    KeyPart::Lookahead { end, .. } => Some(end),
                    _ => None,
                })
                .max()
                .unwrap_or(0)
        })
        .collect();

    // DP over iteration depth: worst-case cursor position entering a state.
    let n = spec.states.len();
    let mut pos = vec![None::<usize>; n];
    pos[spec.start.0] = Some(0);
    let mut best = look[spec.start.0];
    for _ in 0..max_iters {
        let mut next_pos = vec![None::<usize>; n];
        for (si, p) in pos.iter().enumerate() {
            let Some(p) = *p else { continue };
            let after = p + consumed[si];
            best = best.max(after).max(p + look[si]);
            let st = &spec.states[si];
            let nexts = st
                .transitions
                .iter()
                .map(|t| t.next)
                .chain(std::iter::once(st.default));
            for nx in nexts {
                if let NextState::State(n) = nx {
                    let cur = next_pos[n.0].unwrap_or(0);
                    next_pos[n.0] = Some(cur.max(after));
                    // lookahead of the successor also needs input
                    best = best.max(after + look[n.0]);
                }
            }
        }
        pos = next_pos;
        if pos.iter().all(Option::is_none) {
            break;
        }
    }
    best
}

/// Per-field sets of bit indices that appear in any transition key — the
/// Opt1 fact ("typically around 1% of the bits of all fields are relevant").
pub fn key_bits_used(spec: &ParserSpec) -> Vec<BTreeSet<usize>> {
    let mut used = vec![BTreeSet::new(); spec.fields.len()];
    for st in &spec.states {
        for kp in &st.key {
            if let KeyPart::Slice { field, start, end } = *kp {
                for b in start..end {
                    used[field.0].insert(b);
                }
            }
        }
    }
    used
}

/// Contiguous `(field, start, end)` bit groups used in transition keys —
/// the Opt5 grouping units (bits of a field used together stay together).
pub fn key_bit_groups(spec: &ParserSpec) -> Vec<(FieldId, usize, usize)> {
    let mut groups = Vec::new();
    for (fi, bits) in key_bits_used(spec).into_iter().enumerate() {
        let mut it = bits.into_iter();
        let Some(first) = it.next() else { continue };
        let mut start = first;
        let mut prev = first;
        for b in it {
            if b != prev + 1 {
                groups.push((FieldId(fi), start, prev + 1));
                start = b;
            }
            prev = b;
        }
        groups.push((FieldId(fi), start, prev + 1));
    }
    groups
}

/// Fields that never contribute key bits and never control a varbit length —
/// the Opt2 *irrelevant fields* whose width can shrink to 1 bit during
/// synthesis.
pub fn irrelevant_fields(spec: &ParserSpec) -> Vec<bool> {
    let used = key_bits_used(spec);
    let mut irrelevant: Vec<bool> = used.iter().map(BTreeSet::is_empty).collect();
    for f in &spec.fields {
        if let FieldKind::Var(v) = &f.kind {
            irrelevant[v.control.0] = false;
        }
    }
    irrelevant
}

/// All ternary patterns appearing in the spec, per state — the Opt4
/// constant-set seeds.
pub fn spec_constants(spec: &ParserSpec) -> Vec<(StateId, Vec<Ternary>)> {
    spec.states
        .iter()
        .enumerate()
        .map(|(i, st)| {
            (
                StateId(i),
                st.transitions.iter().map(|t| t.pattern.clone()).collect(),
            )
        })
        .collect()
}

/// Largest lookahead window any state requires.
pub fn max_lookahead(spec: &ParserSpec) -> usize {
    spec.states
        .iter()
        .flat_map(|st| {
            st.key.iter().filter_map(|kp| match *kp {
                KeyPart::Lookahead { end, .. } => Some(end),
                _ => None,
            })
        })
        .max()
        .unwrap_or(0)
}

/// Fields extracted by at least one reachable state, in first-extraction
/// order — the Opt3 preallocation domain.
pub fn extracted_fields(spec: &ParserSpec) -> Vec<FieldId> {
    let mut seen = vec![false; spec.fields.len()];
    let mut out = Vec::new();
    for s in reachable_states(spec) {
        for &f in &spec.state(s).extracts {
            if !seen[f.0] {
                seen[f.0] = true;
                out.push(f);
            }
        }
    }
    out
}

/// Total width of the spec's *relevant* input prefix after Opt2 shrinking:
/// irrelevant fields count 1 bit, relevant fields their full width.
pub fn reduced_input_width(spec: &ParserSpec, max_iters: usize) -> usize {
    let irrelevant = irrelevant_fields(spec);
    let reduced: Vec<usize> = spec
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| if irrelevant[i] { 1 } else { f.width })
        .collect();
    // Recompute the consumption bound with shrunken widths.
    let mut shrunk = spec.clone();
    for (i, f) in shrunk.fields.iter_mut().enumerate() {
        f.width = reduced[i];
        f.kind = FieldKind::Fixed;
    }
    // Key slices of shrunken fields would go out of range, but irrelevant
    // fields have no key slices by definition, so widths stay consistent.
    max_bits_consumed(&shrunk, max_iters)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Field, State, Transition};
    use ph_bits::Ternary;

    fn chain_spec(loopy: bool) -> ParserSpec {
        // s0 --(key f0[0:2]==11)--> s1 --> accept (or back to s0 when loopy)
        ParserSpec {
            fields: vec![
                Field::fixed("f0", 8),
                Field::fixed("f1", 8),
                Field::fixed("unused", 16),
            ],
            states: vec![
                State {
                    name: "s0".into(),
                    extracts: vec![FieldId(0)],
                    key: vec![KeyPart::Slice {
                        field: FieldId(0),
                        start: 0,
                        end: 2,
                    }],
                    transitions: vec![Transition {
                        pattern: Ternary::parse("11").unwrap(),
                        next: NextState::State(StateId(1)),
                    }],
                    default: NextState::Accept,
                },
                State {
                    name: "s1".into(),
                    extracts: vec![FieldId(1)],
                    key: vec![],
                    transitions: vec![],
                    default: if loopy {
                        NextState::State(StateId(0))
                    } else {
                        NextState::Accept
                    },
                },
            ],
            start: StateId(0),
        }
    }

    #[test]
    fn reachability() {
        let spec = chain_spec(false);
        assert_eq!(reachable_states(&spec).len(), 2);
    }

    #[test]
    fn loop_detection() {
        assert!(is_loop_free(&chain_spec(false)));
        assert!(!is_loop_free(&chain_spec(true)));
    }

    #[test]
    fn consumption_bound_loop_free() {
        // s0 consumes 8, s1 consumes 8 -> 16 max.
        assert_eq!(max_bits_consumed(&chain_spec(false), 10), 16);
    }

    #[test]
    fn consumption_bound_loopy_grows_with_iters() {
        let spec = chain_spec(true);
        let b3 = max_bits_consumed(&spec, 3);
        let b5 = max_bits_consumed(&spec, 5);
        assert!(b5 > b3);
    }

    #[test]
    fn key_bits_and_groups() {
        let spec = chain_spec(false);
        let used = key_bits_used(&spec);
        assert_eq!(used[0].iter().copied().collect::<Vec<_>>(), vec![0, 1]);
        assert!(used[1].is_empty());
        assert_eq!(key_bit_groups(&spec), vec![(FieldId(0), 0, 2)]);
    }

    #[test]
    fn groups_split_noncontiguous() {
        let mut spec = chain_spec(false);
        spec.states[0].key = vec![
            KeyPart::Slice {
                field: FieldId(0),
                start: 0,
                end: 2,
            },
            KeyPart::Slice {
                field: FieldId(0),
                start: 5,
                end: 7,
            },
        ];
        spec.states[0].transitions[0].pattern = Ternary::parse("11**").unwrap();
        let groups = key_bit_groups(&spec);
        assert_eq!(groups, vec![(FieldId(0), 0, 2), (FieldId(0), 5, 7)]);
    }

    #[test]
    fn irrelevant_field_detection() {
        let spec = chain_spec(false);
        let ir = irrelevant_fields(&spec);
        assert!(!ir[0]); // keyed on
        assert!(ir[1]); // extracted but never keyed
        assert!(ir[2]); // never touched
    }

    #[test]
    fn constants_per_state() {
        let spec = chain_spec(false);
        let cs = spec_constants(&spec);
        assert_eq!(cs[0].1.len(), 1);
        assert_eq!(cs[0].1[0].to_string(), "11");
        assert!(cs[1].1.is_empty());
    }

    #[test]
    fn extraction_order() {
        let spec = chain_spec(false);
        assert_eq!(extracted_fields(&spec), vec![FieldId(0), FieldId(1)]);
    }

    #[test]
    fn reduced_width_shrinks_irrelevant() {
        let spec = chain_spec(false);
        // f0 stays 8, f1 shrinks to 1: 9 total.
        assert_eq!(reduced_input_width(&spec, 10), 9);
        assert!(reduced_input_width(&spec, 10) < max_bits_consumed(&spec, 10));
    }

    #[test]
    fn lookahead_bound() {
        let mut spec = chain_spec(false);
        assert_eq!(max_lookahead(&spec), 0);
        spec.states[0]
            .key
            .push(KeyPart::Lookahead { start: 4, end: 12 });
        assert_eq!(max_lookahead(&spec), 12);
    }
}
