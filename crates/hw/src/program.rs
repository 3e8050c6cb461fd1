//! The compiled artifact: a TCAM program (the `Impl` rows of §4/Table 1).

use crate::device::DeviceProfile;
use ph_bits::Ternary;
use ph_ir::{FieldId, KeyPart};
use std::fmt;

/// Index of a hardware parser state within a [`TcamProgram`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct HwStateId(pub usize);

/// Where a TCAM entry transitions.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HwNext {
    /// Another hardware state.
    State(HwStateId),
    /// Parsing complete.
    Accept,
    /// Packet rejected.
    Reject,
}

/// One TCAM row: a ternary condition over the owning state's key, the
/// fields it extracts (in cursor order) and the transition target.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HwEntry {
    /// The match pattern; width equals the owning state's key width
    /// (zero-width keys use a zero-width pattern that always matches).
    pub pattern: Ternary,
    /// Fields to extract from the cursor, in order, when this entry fires.
    pub extracts: Vec<FieldId>,
    /// Transition target.
    pub next: HwNext,
}

impl HwEntry {
    /// A catch-all entry (all-wildcard pattern).
    pub fn catch_all(key_width: usize, next: HwNext) -> HwEntry {
        HwEntry {
            pattern: Ternary::any(key_width),
            extracts: Vec::new(),
            next,
        }
    }
}

/// A hardware parser state: its stage, transition-key definition, and
/// prioritized TCAM entries (first match wins).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HwState {
    /// Display name for generated configs.
    pub name: String,
    /// Pipeline stage the state's entries live in (always 0 on
    /// single-table devices).
    pub stage: usize,
    /// The transition key, built from extracted-field slices and/or
    /// lookahead bits (same language as the spec IR).
    pub key: Vec<KeyPart>,
    /// TCAM entries, highest priority first.  If none matches the parser
    /// rejects (hardware behaviour; compilers add explicit catch-alls).
    pub entries: Vec<HwEntry>,
}

impl HwState {
    /// Total key width in bits.
    pub fn key_width(&self) -> usize {
        self.key.iter().map(KeyPart::width).sum()
    }
}

/// A compiled parser for some device: the output of ParserHawk's back end
/// and of the baseline compilers.
///
/// Field identifiers refer to the *specification's* field table, so spec and
/// implementation dictionaries are directly comparable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TcamProgram {
    /// The device this program was compiled for.
    pub device: DeviceProfile,
    /// Hardware states.
    pub states: Vec<HwState>,
    /// Entry state.
    pub start: HwStateId,
}

/// Resource usage summary (the numbers reported in Tables 3 and 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResourceUsage {
    /// Total TCAM entries across all states.
    pub tcam_entries: usize,
    /// Number of pipeline stages used (1 for single-table devices).
    pub stages: usize,
    /// Number of hardware states.
    pub states: usize,
    /// Widest transition key of any state.
    pub max_key_width: usize,
}

impl TcamProgram {
    /// Total number of TCAM entries.
    pub fn entry_count(&self) -> usize {
        self.states.iter().map(|s| s.entries.len()).sum()
    }

    /// Number of distinct stages used.
    pub fn stages_used(&self) -> usize {
        self.states.iter().map(|s| s.stage + 1).max().unwrap_or(0)
    }

    /// Resource usage summary.
    pub fn usage(&self) -> ResourceUsage {
        ResourceUsage {
            tcam_entries: self.entry_count(),
            stages: self.stages_used(),
            states: self.states.len(),
            max_key_width: self
                .states
                .iter()
                .map(HwState::key_width)
                .max()
                .unwrap_or(0),
        }
    }

    /// The state table entry.
    pub fn state(&self, s: HwStateId) -> &HwState {
        &self.states[s.0]
    }

    /// Drops the states the start state cannot reach, renumbering the
    /// rest in their original order.
    pub fn prune_unreachable(&mut self) {
        let n = self.states.len();
        let mut seen = vec![false; n];
        let mut stack = vec![self.start.0];
        while let Some(v) = stack.pop() {
            if seen[v] {
                continue;
            }
            seen[v] = true;
            for e in &self.states[v].entries {
                if let HwNext::State(w) = e.next {
                    stack.push(w.0);
                }
            }
        }
        let mut map = vec![usize::MAX; n];
        let mut states = Vec::new();
        for (i, st) in self.states.iter().enumerate() {
            if seen[i] {
                map[i] = states.len();
                states.push(st.clone());
            }
        }
        for st in &mut states {
            for e in &mut st.entries {
                if let HwNext::State(w) = e.next {
                    e.next = HwNext::State(HwStateId(map[w.0]));
                }
            }
        }
        self.start = HwStateId(map[self.start.0]);
        self.states = states;
    }
}

impl fmt::Display for TcamProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "TcamProgram for {} (start {})",
            self.device.name, self.start.0
        )?;
        for (si, st) in self.states.iter().enumerate() {
            writeln!(
                f,
                "  state {si} [{}] stage {} key_width {}",
                st.name,
                st.stage,
                st.key_width()
            )?;
            for (ei, e) in st.entries.iter().enumerate() {
                let next = match e.next {
                    HwNext::State(s) => format!("-> {}", s.0),
                    HwNext::Accept => "-> accept".into(),
                    HwNext::Reject => "-> reject".into(),
                };
                writeln!(
                    f,
                    "    entry {ei}: {} extract {:?} {next}",
                    if e.pattern.width() == 0 {
                        "<always>".to_string()
                    } else {
                        e.pattern.to_string()
                    },
                    e.extracts.iter().map(|x| x.0).collect::<Vec<_>>()
                )?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_program() -> TcamProgram {
        TcamProgram {
            device: DeviceProfile::tofino(),
            states: vec![
                HwState {
                    name: "s0".into(),
                    stage: 0,
                    key: vec![],
                    entries: vec![HwEntry {
                        pattern: Ternary::any(0),
                        extracts: vec![FieldId(0)],
                        next: HwNext::State(HwStateId(1)),
                    }],
                },
                HwState {
                    name: "s1".into(),
                    stage: 0,
                    key: vec![KeyPart::Slice {
                        field: FieldId(0),
                        start: 0,
                        end: 1,
                    }],
                    entries: vec![
                        HwEntry {
                            pattern: Ternary::parse("0").unwrap(),
                            extracts: vec![FieldId(1)],
                            next: HwNext::Accept,
                        },
                        HwEntry::catch_all(1, HwNext::Accept),
                    ],
                },
            ],
            start: HwStateId(0),
        }
    }

    #[test]
    fn unreachable_pruned() {
        let mut p = tiny_program();
        p.states.insert(
            1,
            HwState {
                name: "zombie".into(),
                stage: 0,
                key: vec![],
                entries: vec![HwEntry::catch_all(0, HwNext::Accept)],
            },
        );
        p.states[0].entries[0].next = HwNext::State(HwStateId(2));
        p.prune_unreachable();
        assert_eq!(p, tiny_program());
    }

    #[test]
    fn usage_counts() {
        let p = tiny_program();
        let u = p.usage();
        assert_eq!(u.tcam_entries, 3);
        assert_eq!(u.stages, 1);
        assert_eq!(u.states, 2);
        assert_eq!(u.max_key_width, 1);
    }

    #[test]
    fn display_renders() {
        let p = tiny_program();
        let s = p.to_string();
        assert!(s.contains("state 0"));
        assert!(s.contains("-> accept"));
        assert!(s.contains("<always>"));
    }

    #[test]
    fn catch_all_matches_everything() {
        let e = HwEntry::catch_all(4, HwNext::Reject);
        assert_eq!(e.pattern.match_count(), 16);
    }
}
