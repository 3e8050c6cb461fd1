//! The post-synthesis optimizer (§5.3).
//!
//! The synthesis phase restricts each skeleton state to at most one field
//! extraction, which can leave chains of trivial states.  This pass:
//!
//! 1. prunes states the start state cannot reach;
//! 2. recursively merges a state that has exactly one always-matching entry
//!    into its predecessors' edges (the extraction moves onto the incoming
//!    entry), the paper's chain-merging rule;
//! 3. splits entries whose total extraction exceeds the device's
//!    per-entry extraction limit into continuation chains;
//! 4. renumbers pipeline stages densely.

use ph_hw::{DeviceProfile, HwEntry, HwNext, HwState, HwStateId, TcamProgram};

/// Runs every post-synthesis pass in order.  `fields` is the original
/// specification's field table (extraction widths).
pub fn optimize(prog: &mut TcamProgram, device: &DeviceProfile, fields: &[ph_ir::Field]) {
    prog.prune_unreachable();
    merge_chains(prog);
    prog.prune_unreachable();
    split_wide_extractions_with(prog, fields, device.extraction_limit);
    compact_stages(prog);
}

/// True when the state unconditionally forwards: exactly one entry whose
/// pattern matches every key.
fn is_trivial(st: &HwState) -> bool {
    st.entries.len() == 1 && st.entries[0].pattern.wildcard_bits() == st.entries[0].pattern.width()
}

/// Merges trivial states into their predecessors' entries.
pub fn merge_chains(prog: &mut TcamProgram) {
    loop {
        // Find a trivial, non-start state.
        let Some(t) =
            (0..prog.states.len()).find(|&i| i != prog.start.0 && is_trivial(&prog.states[i]))
        else {
            return;
        };
        let inner = prog.states[t].entries[0].clone();
        // A trivial self-loop cannot be merged away.
        if inner.next == HwNext::State(HwStateId(t)) {
            // Mark it non-mergeable by stopping; such a state would loop
            // forever and the verifier would have rejected it anyway.
            return;
        }
        for s in 0..prog.states.len() {
            if s == t {
                continue;
            }
            for e in prog.states[s].entries.iter_mut() {
                if e.next == HwNext::State(HwStateId(t)) {
                    e.extracts.extend(inner.extracts.iter().copied());
                    e.next = inner.next;
                }
            }
        }
        if prog.start.0 == t {
            return;
        }
        // t is now unreachable (or was already); prune and continue.
        prog.prune_unreachable();
        if prog.states.len() <= 1 {
            return;
        }
    }
}

/// Width-aware extraction splitting: entries extracting more than `limit`
/// bits are split into continuation chains, cutting at field boundaries.
pub fn split_wide_extractions_with(prog: &mut TcamProgram, fields: &[ph_ir::Field], limit: usize) {
    let mut s = 0;
    while s < prog.states.len() {
        let mut e = 0;
        while e < prog.states[s].entries.len() {
            let widths: Vec<usize> = prog.states[s].entries[e]
                .extracts
                .iter()
                .map(|f| fields[f.0].width)
                .collect();
            let total: usize = widths.iter().sum();
            if total > limit && widths.len() > 1 {
                // Keep a prefix within the limit; push the rest into a new
                // pass-through state.
                let mut acc = 0;
                let mut cut = 0;
                for (i, w) in widths.iter().enumerate() {
                    if acc + w > limit && i > 0 {
                        break;
                    }
                    acc += w;
                    cut = i + 1;
                }
                let cut = cut.max(1);
                let entry = &mut prog.states[s].entries[e];
                let rest = entry.extracts.split_off(cut);
                let old_next = entry.next;
                let cont = HwState {
                    name: format!("{}~x", prog.states[s].name),
                    stage: prog.states[s].stage,
                    key: Vec::new(),
                    entries: vec![HwEntry {
                        pattern: ph_bits::Ternary::any(0),
                        extracts: rest,
                        next: old_next,
                    }],
                };
                let id = HwStateId(prog.states.len());
                prog.states[s].entries[e].next = HwNext::State(id);
                prog.states.push(cont);
            }
            e += 1;
        }
        s += 1;
    }
}

/// Renumbers stages densely (0, 1, 2, ...) preserving relative order.
pub fn compact_stages(prog: &mut TcamProgram) {
    let mut used: Vec<usize> = prog.states.iter().map(|s| s.stage).collect();
    used.sort_unstable();
    used.dedup();
    for st in prog.states.iter_mut() {
        st.stage = used.binary_search(&st.stage).expect("stage present");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_bits::Ternary;
    use ph_ir::FieldId;

    fn entry(next: HwNext, extracts: Vec<usize>) -> HwEntry {
        HwEntry {
            pattern: Ternary::any(0),
            extracts: extracts.into_iter().map(FieldId).collect(),
            next,
        }
    }

    fn prog(states: Vec<HwState>) -> TcamProgram {
        TcamProgram {
            device: DeviceProfile::tofino(),
            states,
            start: HwStateId(0),
        }
    }

    fn state(name: &str, stage: usize, entries: Vec<HwEntry>) -> HwState {
        HwState {
            name: name.into(),
            stage,
            key: Vec::new(),
            entries,
        }
    }

    #[test]
    fn chain_merging_collapses_trivial_states() {
        // 0 -> 1 -> 2 -> accept, states 1 and 2 trivial extract-only.
        let mut p = prog(vec![
            state("a", 0, vec![entry(HwNext::State(HwStateId(1)), vec![0])]),
            state("b", 0, vec![entry(HwNext::State(HwStateId(2)), vec![1])]),
            state("c", 0, vec![entry(HwNext::Accept, vec![2])]),
        ]);
        // State 0 itself is trivial but is the start; 1 and 2 merge into it.
        merge_chains(&mut p);
        assert_eq!(p.states.len(), 1);
        assert_eq!(p.states[0].entries[0].next, HwNext::Accept);
        assert_eq!(
            p.states[0].entries[0].extracts,
            vec![FieldId(0), FieldId(1), FieldId(2)]
        );
    }

    #[test]
    fn nontrivial_states_survive_merging() {
        let keyed = HwState {
            name: "k".into(),
            stage: 0,
            key: Vec::new(),
            entries: vec![
                HwEntry {
                    pattern: Ternary::any(0),
                    extracts: vec![],
                    next: HwNext::Accept,
                },
                HwEntry {
                    pattern: Ternary::any(0),
                    extracts: vec![],
                    next: HwNext::Reject,
                },
            ],
        };
        let mut p = prog(vec![
            state("a", 0, vec![entry(HwNext::State(HwStateId(1)), vec![0])]),
            keyed,
        ]);
        merge_chains(&mut p);
        assert_eq!(p.states.len(), 2);
    }

    #[test]
    fn wide_extraction_split() {
        let fields = vec![
            ph_ir::Field::fixed("a", 60),
            ph_ir::Field::fixed("b", 60),
            ph_ir::Field::fixed("c", 60),
        ];
        let mut p = prog(vec![state(
            "s",
            0,
            vec![entry(HwNext::Accept, vec![0, 1, 2])],
        )]);
        split_wide_extractions_with(&mut p, &fields, 128);
        // 180 bits split at field boundaries: [a, b] then [c].
        assert_eq!(p.states.len(), 2);
        assert_eq!(p.states[0].entries[0].extracts.len(), 2);
        assert_eq!(p.states[1].entries[0].extracts.len(), 1);
        assert_eq!(p.states[1].entries[0].next, HwNext::Accept);
    }

    #[test]
    fn stage_compaction() {
        let mut p = prog(vec![
            state("a", 0, vec![entry(HwNext::State(HwStateId(1)), vec![])]),
            state("b", 4, vec![entry(HwNext::State(HwStateId(2)), vec![])]),
            state("c", 9, vec![entry(HwNext::Accept, vec![])]),
        ]);
        compact_stages(&mut p);
        assert_eq!(
            p.states.iter().map(|s| s.stage).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }
}
