//! Differential regression tests for the incremental verification engine:
//! the persistent assumption-pinned verifier must return the same verdicts
//! as the old fresh-solver-per-candidate path, and any counterexample
//! either path returns must be a genuine spec/implementation mismatch.

use ph_bits::BitString;
use ph_core::bounds::compute_bounds;
use ph_core::cegis::{shape_k, verify_candidate_fresh, IncrementalVerifier, Verdict};
use ph_core::encode::encode_impl;
use ph_core::reduce::{reduce_spec, Reduced};
use ph_core::skeleton::{build_shape, concrete_terms, ConcreteEntry, ConcreteSkel, Shape};
use ph_core::{OptConfig, SynthParams, Synthesizer};
use ph_hw::DeviceProfile;
use ph_ir::{FieldId, ParseStatus, ParserSpec};
use ph_p4f::parse_parser;
use ph_sat::Interrupt;
use ph_smt::Smt;
use std::time::Duration;

/// The Fig. 7 two-state spec (Spec2): extract f0, branch on its first bit,
/// optionally extract f1.
fn fig7_spec() -> ParserSpec {
    parse_parser(
        r#"
        header h_t { f0 : 4; f1 : 4; }
        parser {
            state start {
                extract(h_t.f0);
                transition select(h_t.f0[0:1]) {
                    0b0 : s1;
                    default : accept;
                }
            }
            state s1 { extract(h_t.f1); transition accept; }
        }
        "#,
    )
    .unwrap()
}

struct Fixture {
    red: Reduced,
    shape: Shape,
    l: usize,
    k_impl: usize,
    k_spec: usize,
}

fn fig7_fixture() -> Fixture {
    let spec = fig7_spec();
    let opts = OptConfig::all();
    let red = reduce_spec(&spec, opts).unwrap();
    let dev = DeviceProfile::tofino();
    let bounds = compute_bounds(&red.spec, 8).unwrap();
    let shape = build_shape(&red, &dev, opts, false, None).unwrap();
    let l = bounds.input_bits.max(1);
    let k_impl = shape_k(&shape, &bounds);
    let k_spec = bounds.spec_iters + 1;
    Fixture {
        red,
        shape,
        l,
        k_impl,
        k_spec,
    }
}

/// The hand-built correct implementation (Impl2 of Fig. 7).
fn correct_candidate(shape: &Shape) -> ConcreteSkel {
    let acc = shape.accept_code();
    ConcreteSkel {
        alloc: vec![vec![false], vec![true], vec![false]],
        entries: vec![
            vec![ConcreteEntry {
                value: BitString::zeros(1),
                mask: BitString::zeros(1),
                next: 1,
            }],
            vec![
                ConcreteEntry {
                    value: BitString::from_u64(0, 1),
                    mask: BitString::from_u64(1, 1),
                    next: 2,
                },
                ConcreteEntry {
                    value: BitString::zeros(1),
                    mask: BitString::zeros(1),
                    next: acc,
                },
            ],
            vec![ConcreteEntry {
                value: BitString::zeros(1),
                mask: BitString::zeros(1),
                next: acc,
            }],
        ],
        ext: vec![0, 1, 2],
        stage: vec![0, 0, 0],
    }
}

/// True iff `input` genuinely distinguishes the candidate from the spec
/// (different acceptance class or different extraction dictionary) — the
/// property any returned counterexample must have.
fn is_real_mismatch(fx: &Fixture, conc: &ConcreteSkel, input: &BitString) -> bool {
    let expect = ph_ir::simulate(&fx.red.spec, input, fx.k_spec + 2);
    let mut smt = Smt::new();
    let terms = concrete_terms(&mut smt, &fx.shape, conc);
    let it = smt.const_bits(input.clone());
    let out = encode_impl(&mut smt, &fx.shape, &terms, it, fx.k_impl);
    assert!(smt.check().is_sat());
    let status = smt.model_u64(out.status) as usize;
    let want = match expect.status {
        ParseStatus::Accept => fx.shape.accept_code(),
        ParseStatus::Reject => fx.shape.reject_code(),
        _ => fx.shape.ooi_code(),
    };
    if status != want {
        return true;
    }
    if expect.status != ParseStatus::Accept {
        return false; // non-accepting outcomes only compare status
    }
    for (f, _) in fx.shape.field_widths.iter().enumerate() {
        let def = smt.model_bool(out.defined[f]);
        match expect.dict.get(FieldId(f)) {
            Some(v) => {
                if !def || &smt.model_value(out.values[f]) != v {
                    return true;
                }
            }
            None => {
                if def {
                    return true;
                }
            }
        }
    }
    false
}

/// Checks one candidate through both verification paths and asserts they
/// agree; counterexamples from either path must be real mismatches.
fn check_both(
    fx: &Fixture,
    verifier: &mut IncrementalVerifier<'_>,
    conc: &ConcreteSkel,
    expect_verified: bool,
    what: &str,
) {
    let interrupt = Interrupt::default();
    let fresh = verify_candidate_fresh(
        &fx.shape,
        &fx.red.spec,
        conc,
        fx.l,
        fx.k_impl,
        fx.k_spec,
        &interrupt,
    )
    .unwrap();
    let incr = verifier.verify(conc);
    match (&fresh, &incr) {
        (Verdict::Verified, Verdict::Verified) => {
            assert!(
                expect_verified,
                "{what}: both paths verified a broken candidate"
            );
        }
        (Verdict::Counterexample(cf), Verdict::Counterexample(ci)) => {
            assert!(
                !expect_verified,
                "{what}: both paths rejected a correct candidate"
            );
            // Different SAT searches may surface different witnesses; each
            // must independently be a genuine mismatch.
            assert!(
                is_real_mismatch(fx, conc, cf),
                "{what}: fresh cex {cf} is bogus"
            );
            assert!(
                is_real_mismatch(fx, conc, ci),
                "{what}: incremental cex {ci} is bogus"
            );
        }
        _ => panic!("{what}: paths disagree: fresh={fresh:?} incremental={incr:?}"),
    }
}

#[test]
fn incremental_agrees_with_fresh_on_fig7() {
    let fx = fig7_fixture();
    let interrupt = Interrupt::default();
    // ONE persistent verifier serves every candidate below.
    let mut verifier = IncrementalVerifier::new(
        &fx.shape,
        &fx.red.spec,
        fx.l,
        fx.k_impl,
        fx.k_spec,
        &interrupt,
    )
    .unwrap();

    let good = correct_candidate(&fx.shape);
    check_both(&fx, &mut verifier, &good, true, "correct candidate");

    // Broken: the keyed branch goes straight to accept, so f1 is never
    // extracted on the f0-bit-0 path.
    let mut b1 = good.clone();
    b1.entries[1][0].next = fx.shape.accept_code();
    check_both(&fx, &mut verifier, &b1, false, "skipped extraction");

    // Broken: no catch-all in the keyed state — the other branch falls
    // through to an empty table instead of accepting.
    let mut b2 = good.clone();
    b2.entries[1].truncate(1);
    check_both(&fx, &mut verifier, &b2, false, "missing catch-all");

    // Broken: key group deallocated, so the match sees zeros and every
    // input takes the extraction branch.
    let mut b3 = good.clone();
    b3.alloc[1][0] = false;
    b3.entries[1][0].mask = BitString::from_u64(1, 1);
    check_both(&fx, &mut verifier, &b3, false, "deallocated key group");

    // The pins from the broken candidates must not stick: the correct
    // candidate still verifies on the same persistent instance.
    check_both(
        &fx,
        &mut verifier,
        &good,
        true,
        "correct candidate (revisited)",
    );
}

/// End-to-end: a full synthesis run constructs exactly one verification
/// solver regardless of how many candidates and shrink trials it checks.
#[test]
fn one_verifier_build_per_synthesis_run() {
    let spec = fig7_spec();
    let out = Synthesizer::new(
        DeviceProfile::tofino(),
        OptConfig {
            opt7_parallel: false,
            ..OptConfig::all()
        },
    )
    .with_params(SynthParams {
        timeout: Some(Duration::from_secs(60)),
        ..Default::default()
    })
    .synthesize(&spec)
    .expect("fig7 synthesizes");
    assert_eq!(
        out.stats.verify_solver_builds, 1,
        "verifier must be built exactly once"
    );
    assert!(
        out.stats.verify_checks >= 1,
        "at least the final candidate is verified"
    );
    assert!(out.program.entry_count() >= 1);
}
