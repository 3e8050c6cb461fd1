//! Spec canonicalization for content-addressed caching.
//!
//! Two specifications that differ only in state ordering, field ordering,
//! display names, or unreachable/unreferenced definitions synthesize to
//! semantically identical programs, so the synthesis-result cache wants
//! them to share one key.  [`canonicalize`] computes a *canonical form*:
//!
//! * **States** are renumbered in BFS order from the start state,
//!   following each state's transitions in priority order and then its
//!   default.  Unreachable states are dropped.
//! * **Fields** are renumbered in order of first reference during that
//!   walk (extractions first, then key slices; a varbit field pulls in
//!   its control field immediately).  Unreferenced fields are dropped.
//! * **Names** become positional (`s0`, `s1`, …, `f0`, `f1`, …) so
//!   display names never influence the key.
//! * **Ternary patterns** are already normalized by construction
//!   ([`ph_bits::Ternary`] zeroes value bits under wildcard mask bits),
//!   so structurally equal patterns serialize identically.
//!
//! Transition *order* is semantic (first match wins) and is preserved.
//!
//! The returned [`Canon`] also carries the original→canonical index maps
//! both ways: the cache stores programs with canonical [`FieldId`]s and
//! remaps them back through the *querying* spec's maps on a hit, so a hit
//! from an alpha-variant spec still yields a program whose field ids
//! index that spec's own field table.

use crate::spec::{Field, FieldId, FieldKind, KeyPart, NextState, ParserSpec, State, StateId};
use std::collections::VecDeque;
use std::fmt::Write as _;

/// A canonicalized spec plus the index maps connecting it to the
/// original (see the [module docs](self)).
#[derive(Clone, Debug)]
pub struct Canon {
    /// The canonical form (positional names, renumbered indices).
    pub spec: ParserSpec,
    /// Original state index → canonical index (`None` = unreachable).
    pub state_map: Vec<Option<usize>>,
    /// Original field index → canonical index (`None` = unreferenced).
    pub field_map: Vec<Option<usize>>,
    /// Canonical field index → original index.
    pub field_unmap: Vec<usize>,
}

impl Canon {
    /// Maps an original field id into canonical coordinates.
    pub fn field_to_canon(&self, f: FieldId) -> Option<FieldId> {
        self.field_map.get(f.0).copied().flatten().map(FieldId)
    }

    /// Maps a canonical field id back into this spec's coordinates.
    pub fn field_from_canon(&self, f: FieldId) -> Option<FieldId> {
        self.field_unmap.get(f.0).copied().map(FieldId)
    }
}

/// Computes the canonical form of `spec` (see the [module docs](self)).
///
/// The input is assumed structurally valid ([`ParserSpec::validate`]);
/// out-of-range indices in an unvalidated spec are tolerated and simply
/// left unmapped.
pub fn canonicalize(spec: &ParserSpec) -> Canon {
    let _span = ph_obs::current().span("ir.canon");
    // --- canonical state order: BFS from start ---------------------------
    let n_states = spec.states.len();
    let mut state_map: Vec<Option<usize>> = vec![None; n_states];
    let mut state_order: Vec<usize> = Vec::new();
    let mut queue = VecDeque::new();
    if spec.start.0 < n_states {
        state_map[spec.start.0] = Some(0);
        state_order.push(spec.start.0);
        queue.push_back(spec.start.0);
    }
    while let Some(s) = queue.pop_front() {
        let st = &spec.states[s];
        let targets = st
            .transitions
            .iter()
            .map(|t| t.next)
            .chain(std::iter::once(st.default));
        for next in targets {
            if let NextState::State(t) = next {
                if t.0 < n_states && state_map[t.0].is_none() {
                    state_map[t.0] = Some(state_order.len());
                    state_order.push(t.0);
                    queue.push_back(t.0);
                }
            }
        }
    }

    // --- canonical field order: first reference during the state walk ----
    let n_fields = spec.fields.len();
    let mut field_map: Vec<Option<usize>> = vec![None; n_fields];
    let mut field_unmap: Vec<usize> = Vec::new();
    let touch = |f: usize, field_map: &mut Vec<Option<usize>>, unmap: &mut Vec<usize>| {
        // A varbit field pulls in its control chain; controls are
        // fixed-width (validated), so the chain has length <= 2.
        let mut cur = f;
        loop {
            if cur >= n_fields || field_map[cur].is_some() {
                return;
            }
            field_map[cur] = Some(unmap.len());
            unmap.push(cur);
            match &spec.fields[cur].kind {
                FieldKind::Var(v) => cur = v.control.0,
                FieldKind::Fixed => return,
            }
        }
    };
    for &s in &state_order {
        let st = &spec.states[s];
        for &e in &st.extracts {
            touch(e.0, &mut field_map, &mut field_unmap);
        }
        for kp in &st.key {
            if let KeyPart::Slice { field, .. } = kp {
                touch(field.0, &mut field_map, &mut field_unmap);
            }
        }
    }

    // --- rebuild the spec in canonical coordinates -----------------------
    let fields = field_unmap
        .iter()
        .enumerate()
        .map(|(ci, &oi)| {
            let f = &spec.fields[oi];
            Field {
                name: format!("f{ci}"),
                width: f.width,
                kind: match &f.kind {
                    FieldKind::Fixed => FieldKind::Fixed,
                    FieldKind::Var(v) => FieldKind::Var(crate::spec::VarLen {
                        control: FieldId(field_map[v.control.0].unwrap_or(usize::MAX)),
                        multiplier: v.multiplier,
                        offset: v.offset,
                    }),
                },
            }
        })
        .collect();
    let map_next = |n: NextState| match n {
        NextState::State(s) => NextState::State(StateId(
            state_map.get(s.0).copied().flatten().unwrap_or(usize::MAX),
        )),
        other => other,
    };
    let states = state_order
        .iter()
        .enumerate()
        .map(|(ci, &oi)| {
            let st = &spec.states[oi];
            State {
                name: format!("s{ci}"),
                extracts: st
                    .extracts
                    .iter()
                    .map(|e| FieldId(field_map[e.0].unwrap_or(usize::MAX)))
                    .collect(),
                key: st
                    .key
                    .iter()
                    .map(|kp| match *kp {
                        KeyPart::Slice { field, start, end } => KeyPart::Slice {
                            field: FieldId(field_map[field.0].unwrap_or(usize::MAX)),
                            start,
                            end,
                        },
                        la => la,
                    })
                    .collect(),
                transitions: st
                    .transitions
                    .iter()
                    .map(|t| crate::spec::Transition {
                        pattern: t.pattern.clone(),
                        next: map_next(t.next),
                    })
                    .collect(),
                default: map_next(st.default),
            }
        })
        .collect();
    Canon {
        spec: ParserSpec {
            fields,
            states,
            start: StateId(0),
        },
        state_map,
        field_map,
        field_unmap,
    }
}

/// A deterministic, self-delimiting text serialization of `spec` —
/// the hashing pre-image for cache keys.  Every semantic component
/// (fields with widths and varbit rules, states with extracts, key
/// parts, ordered transitions with their ternary patterns, defaults,
/// start) appears with an unambiguous tag; display names are included
/// as-is, so hash the [`canonicalize`]d form to get a name-independent
/// key.
pub fn spec_fingerprint_text(spec: &ParserSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "fields {}", spec.fields.len());
    for f in &spec.fields {
        match &f.kind {
            FieldKind::Fixed => {
                let _ = writeln!(out, "f {} w{} fixed", f.name, f.width);
            }
            FieldKind::Var(v) => {
                let _ = writeln!(
                    out,
                    "f {} w{} var c{} m{} o{}",
                    f.name, f.width, v.control.0, v.multiplier, v.offset
                );
            }
        }
    }
    let next_str = |n: NextState| match n {
        NextState::State(s) => format!("s{}", s.0),
        NextState::Accept => "acc".into(),
        NextState::Reject => "rej".into(),
    };
    let _ = writeln!(out, "states {} start {}", spec.states.len(), spec.start.0);
    for st in &spec.states {
        let _ = write!(out, "s {} x[", st.name);
        for (i, e) in st.extracts.iter().enumerate() {
            let _ = write!(out, "{}{}", if i > 0 { "," } else { "" }, e.0);
        }
        let _ = write!(out, "] k[");
        for (i, kp) in st.key.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match *kp {
                KeyPart::Slice { field, start, end } => {
                    let _ = write!(out, "S{}:{start}:{end}", field.0);
                }
                KeyPart::Lookahead { start, end } => {
                    let _ = write!(out, "L{start}:{end}");
                }
            }
        }
        let _ = write!(out, "] t[");
        for (i, tr) in st.transitions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}>{}", tr.pattern, next_str(tr.next));
        }
        let _ = writeln!(out, "] d {}", next_str(st.default));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Transition, VarLen};
    use ph_bits::Ternary;

    fn two_state_spec() -> ParserSpec {
        ParserSpec {
            fields: vec![Field::fixed("a", 4), Field::fixed("b", 4)],
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
                        pattern: Ternary::parse("1*").unwrap(),
                        next: NextState::State(StateId(1)),
                    }],
                    default: NextState::Accept,
                },
                State {
                    name: "tail".into(),
                    extracts: vec![FieldId(1)],
                    key: vec![],
                    transitions: vec![],
                    default: NextState::Accept,
                },
            ],
            start: StateId(0),
        }
    }

    /// The same machine with states and fields permuted and renamed.
    fn permuted_spec() -> ParserSpec {
        ParserSpec {
            fields: vec![Field::fixed("beta", 4), Field::fixed("alpha", 4)],
            states: vec![
                State {
                    name: "END".into(),
                    extracts: vec![FieldId(0)],
                    key: vec![],
                    transitions: vec![],
                    default: NextState::Accept,
                },
                State {
                    name: "BEGIN".into(),
                    extracts: vec![FieldId(1)],
                    key: vec![KeyPart::Slice {
                        field: FieldId(1),
                        start: 0,
                        end: 2,
                    }],
                    transitions: vec![Transition {
                        pattern: Ternary::parse("1*").unwrap(),
                        next: NextState::State(StateId(0)),
                    }],
                    default: NextState::Accept,
                },
            ],
            start: StateId(1),
        }
    }

    #[test]
    fn canonical_form_validates_and_starts_at_zero() {
        let c = canonicalize(&two_state_spec());
        assert_eq!(c.spec.start, StateId(0));
        assert!(c.spec.validate().is_ok());
        assert_eq!(c.spec.states[0].name, "s0");
        assert_eq!(c.spec.fields[0].name, "f0");
    }

    #[test]
    fn alpha_variants_share_a_fingerprint() {
        let a = spec_fingerprint_text(&canonicalize(&two_state_spec()).spec);
        let b = spec_fingerprint_text(&canonicalize(&permuted_spec()).spec);
        assert_eq!(a, b);
    }

    #[test]
    fn semantic_changes_change_the_fingerprint() {
        let base = spec_fingerprint_text(&canonicalize(&two_state_spec()).spec);
        let mut widened = two_state_spec();
        widened.fields[1].width = 8;
        let w = spec_fingerprint_text(&canonicalize(&widened).spec);
        assert_ne!(base, w);
        let mut flipped = two_state_spec();
        flipped.states[0].transitions[0].pattern = Ternary::parse("0*").unwrap();
        let f = spec_fingerprint_text(&canonicalize(&flipped).spec);
        assert_ne!(base, f);
        let mut retarget = two_state_spec();
        retarget.states[0].transitions[0].next = NextState::Reject;
        let r = spec_fingerprint_text(&canonicalize(&retarget).spec);
        assert_ne!(base, r);
    }

    #[test]
    fn unreachable_states_and_unused_fields_are_dropped() {
        let mut s = two_state_spec();
        s.fields.push(Field::fixed("unused", 16));
        s.states.push(State {
            name: "island".into(),
            extracts: vec![FieldId(2)],
            key: vec![],
            transitions: vec![],
            default: NextState::Reject,
        });
        let c = canonicalize(&s);
        assert_eq!(c.spec.states.len(), 2);
        assert_eq!(c.spec.fields.len(), 2);
        assert_eq!(c.state_map[2], None);
        assert_eq!(c.field_map[2], None);
        // Same fingerprint as without the dead definitions.
        assert_eq!(
            spec_fingerprint_text(&c.spec),
            spec_fingerprint_text(&canonicalize(&two_state_spec()).spec)
        );
    }

    #[test]
    fn varbit_controls_are_pulled_in_with_their_field() {
        let mut s = two_state_spec();
        // b becomes varbit controlled by a fresh fixed field that is
        // extracted in state 0 but referenced nowhere else.
        s.fields.push(Field::fixed("ihl", 4));
        s.states[0].extracts = vec![FieldId(0), FieldId(2)];
        s.fields[1].kind = FieldKind::Var(VarLen {
            control: FieldId(2),
            multiplier: 8,
            offset: 0,
        });
        assert!(s.validate().is_ok());
        let c = canonicalize(&s);
        assert!(c.spec.validate().is_ok());
        assert_eq!(c.spec.fields.len(), 3);
        // The control's canonical id round-trips through the maps.
        let canon_ctrl = match &c.spec.fields[c.field_map[1].unwrap()].kind {
            FieldKind::Var(v) => v.control,
            _ => panic!("b should stay varbit"),
        };
        assert_eq!(c.field_unmap[canon_ctrl.0], 2);
    }

    #[test]
    fn field_maps_round_trip() {
        let c = canonicalize(&permuted_spec());
        for (orig, canon) in c.field_map.iter().enumerate() {
            if let Some(ci) = canon {
                assert_eq!(c.field_unmap[*ci], orig);
                assert_eq!(c.field_from_canon(FieldId(*ci)), Some(FieldId(orig)));
            }
        }
    }
}
