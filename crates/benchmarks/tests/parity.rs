//! Differential parity suite: for every benchmark in the registry, the
//! spec simulator and the baseline `direct_translate` program must agree
//! bit-for-bit — on full seed-path packets (a path through every
//! transition, then the first depth-first accepting paths), on the packet
//! truncated at every extraction boundary, and on extended packets with
//! trailing garbage.  This is the fuzzing oracle's generator pointed at the exact
//! translation, so any disagreement is a simulator/translator bug, not a
//! synthesis bug.

use ph_baseline::translate::direct_translate;
use ph_bits::Rng;
use ph_core::fuzz::{fuzz, mutants, seed_packets, FuzzConfig};
use ph_hw::{run_program, DeviceProfile};
use ph_ir::{simulate, ParseStatus};

/// Full oracle sweep (all generator classes) over every registry case.
#[test]
fn registry_direct_translate_fuzzes_clean() {
    let device = DeviceProfile::tofino();
    for case in ph_benchmarks::registry() {
        let prog = direct_translate(&case.spec, &device);
        let report = fuzz(&case.spec, &[("direct", &prog)], &FuzzConfig::default());
        assert!(
            report.clean(),
            "{}: {} divergences, first: {}",
            case.name,
            report.divergences.len(),
            report.divergences[0]
        );
        assert!(
            report.stats.packets > 0,
            "{}: no packets compared",
            case.name
        );
    }
}

/// Explicit length sweep: every seed packet at full length, truncated at
/// every extraction boundary (and one bit short of it), and extended by
/// trailing garbage.  Subsumed by the oracle sweep above but kept as a
/// direct, self-contained statement of the Fig. 22 agreement property.
#[test]
fn registry_parity_at_boundary_lengths() {
    let device = DeviceProfile::tofino();
    for case in ph_benchmarks::registry() {
        let prog = direct_translate(&case.spec, &device);
        let mut rng = Rng::seed_from_u64(0x9aa5);
        let mut compared = 0usize;
        for seed in seed_packets(&case.spec, &mut rng) {
            let mut inputs = vec![seed.bits.clone()];
            for &cut in &seed.boundaries {
                inputs.push(seed.bits.slice(0, cut.min(seed.bits.len())));
                if cut >= 1 {
                    inputs.push(seed.bits.slice(0, (cut - 1).min(seed.bits.len())));
                }
            }
            let mut ext = seed.bits.clone();
            for i in 0..16 {
                ext.push(i % 3 == 0);
            }
            inputs.push(ext);

            for input in inputs {
                let s = simulate(&case.spec, &input, 64);
                if s.status == ParseStatus::IterationBudget {
                    continue;
                }
                let h = run_program(&prog, &case.spec.fields, &input, 256);
                assert_eq!(
                    s.status,
                    h.status,
                    "{}: status diverges on {}-bit input {input}",
                    case.name,
                    input.len()
                );
                assert_eq!(
                    s.dict,
                    h.dict,
                    "{}: dictionary diverges on {}-bit input {input}",
                    case.name,
                    input.len()
                );
                compared += 1;
            }
        }
        assert!(compared > 0, "{}: no comparable inputs", case.name);
    }
}

/// The generator classes cover what they claim to cover: every case
/// produces at least one seed, and seeds of multi-state cases carry
/// boundaries for the truncation sweep.
#[test]
fn registry_seeds_are_grammar_aware() {
    for case in ph_benchmarks::registry() {
        let mut rng = Rng::seed_from_u64(1);
        let seeds = seed_packets(&case.spec, &mut rng);
        assert!(!seeds.is_empty(), "{}: no seeds", case.name);
        // Seeds follow planned paths, rejecting ones among them; some
        // paths are unsatisfiable (re-extraction overwrites planted
        // constants, so loop unrollings can conflict), but every case must
        // materialize at least one genuinely accepting packet.
        let accepting = seeds
            .iter()
            .filter(|s| simulate(&case.spec, &s.bits, 64).status == ParseStatus::Accept)
            .count();
        assert!(
            accepting > 0,
            "{}: none of the {} seeds accept",
            case.name,
            seeds.len()
        );
        for seed in &seeds {
            let ms = mutants(seed, &mut rng);
            assert!(ms.iter().any(|(g, _)| *g == "path"));
            if !seed.boundaries.is_empty() {
                assert!(ms.iter().any(|(g, _)| *g == "truncate"), "{}", case.name);
            }
        }
    }
}
