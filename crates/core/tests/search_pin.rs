//! Search pins: the exact CDCL effort of five single-branch synthesis runs.
//!
//! Synthesis is seeded and `synthesize_one` runs one branch on one thread,
//! so the conflicts, decisions and propagations of its two solvers are a
//! fingerprint of the SAT search itself.  A change to the solver's clause
//! storage or propagation loop that is meant to leave the search unchanged
//! must leave these numbers unchanged; one that changes the search on
//! purpose re-measures them here.

use ph_core::cegis::{synthesize_one, LoopMode};
use ph_core::{OptConfig, SynthParams};
use ph_hw::DeviceProfile;
use ph_sat::SolverStats;

/// `(conflicts, decisions, propagations)` of one solver.
type Effort = (u64, u64, u64);

fn effort(s: &SolverStats) -> Effort {
    (s.conflicts, s.decisions, s.propagations)
}

fn check(
    case: &str,
    device: DeviceProfile,
    mode: LoopMode,
    synth: Effort,
    verify: Effort,
    entries: usize,
) {
    let spec = ph_benchmarks::registry()
        .into_iter()
        .find(|c| c.name == case)
        .unwrap_or_else(|| panic!("no registry case {case:?}"))
        .spec;
    let out = synthesize_one(
        &spec,
        &device,
        OptConfig::all(),
        &SynthParams::default(),
        mode,
        None,
    )
    .unwrap_or_else(|e| panic!("{case} on {}: {e:?}", device.name));
    let got = (
        effort(&out.stats.synth_sat),
        effort(&out.stats.verify_sat),
        out.program.entry_count(),
    );
    assert_eq!(
        got,
        (synth, verify, entries),
        "{case} on {} ({mode:?}): (synth, verify, entries) moved",
        device.name
    );
}

#[test]
fn parse_ethernet_tofino_loop_free() {
    check(
        "Parse Ethernet",
        DeviceProfile::tofino(),
        LoopMode::LoopFree,
        (411, 2109, 135_162),
        (48, 1531, 67_565),
        4,
    );
}

#[test]
fn parse_ethernet_tofino_loopy() {
    check(
        "Parse Ethernet",
        DeviceProfile::tofino(),
        LoopMode::Loopy,
        (373, 1285, 74_982),
        (54, 1315, 54_473),
        4,
    );
}

#[test]
fn dash_v2_ipu_loop_free() {
    check(
        "Dash V2",
        DeviceProfile::ipu(),
        LoopMode::LoopFree,
        (597, 2564, 156_386),
        (56, 612, 54_900),
        4,
    );
}

#[test]
fn multi_keys_diff_fields_tofino_loop_free() {
    check(
        "Multi-keys (diff pkt fields)",
        DeviceProfile::tofino(),
        LoopMode::LoopFree,
        (807, 6667, 461_319),
        (98, 2003, 123_381),
        3,
    );
}

/// The run that sets the `hard` workload's peak heap: every counterexample
/// adds a copy of the implementation to the synthesis solver, which ends
/// with about 260k variables and 2M watches.
#[test]
fn sai_v1_r2_tofino_loop_free() {
    check(
        "Sai V1 + R2",
        DeviceProfile::tofino(),
        LoopMode::LoopFree,
        (9636, 142_837, 20_880_289),
        (642, 92_814, 4_768_282),
        13,
    );
}
