//! Integration tests of the differential fuzzing oracle: the final gate
//! inside `synthesize()` and its mutation corpus, corruption detection
//! with minimal shrunk witnesses, and the machine-readable divergence
//! reports.

use ph_baseline::translate::direct_translate;
use ph_core::fuzz::{check_e2e, fuzz, FuzzConfig, GATE_PACKETS};
use ph_core::{OptConfig, SynthParams, Synthesizer};
use ph_hw::{run_program, DeviceProfile, HwNext};
use ph_ir::simulate;
use ph_obs::Json;
use ph_p4f::parse_parser;

fn two_state_spec() -> ph_ir::ParserSpec {
    parse_parser(
        r#"
        header h_t { ty : 4; }
        header a_t { v : 8; }
        parser {
            state start {
                extract(h_t);
                transition select(h_t.ty) { 7 : pa; default : accept; }
            }
            state pa { extract(a_t); transition accept; }
        }
        "#,
    )
    .unwrap()
}

#[test]
fn synthesize_with_e2e_gate_passes() {
    let spec = two_state_spec();
    let out = Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
        .with_params(SynthParams::default())
        .synthesize(&spec)
        .expect("clean synthesis must pass the fuzzing gate");
    assert!(out.program.entry_count() >= 1);
}

/// The mutation corpus: every registry case's `direct_translate` program
/// with one entry's `next` flipped (accept or a state becomes reject,
/// reject becomes accept), checked by the gate at its budget and the
/// default synthesis seed.  A mutant counts as caught only when the gate
/// reports a divergence (not when it refuses a vacuous run).  Some flips
/// are inert (shadowed entries), so not all 282 can be caught.
///
/// The floor of 259 is what the two checkers this gate replaced caught
/// together, measured on the same corpus, budget and seed: 400 constant-
/// planted random bitstreams caught 187, the grammar-aware oracle at 400
/// packets (grammar classes seed by seed, 32 accepting paths, a uniform
/// random tail) caught 252, and their union 259.
#[test]
fn gate_catches_the_next_flip_corpus() {
    let device = DeviceProfile::tofino();
    let seed = SynthParams::default().seed;
    let (mut caught, mut total) = (0, 0);
    let mut missed = Vec::new();
    for case in ph_benchmarks::registry() {
        let prog = direct_translate(&case.spec, &device);
        for (si, st) in prog.states.iter().enumerate() {
            for (ei, e) in st.entries.iter().enumerate() {
                let mut bad = prog.clone();
                bad.states[si].entries[ei].next = match e.next {
                    HwNext::Reject => HwNext::Accept,
                    _ => HwNext::Reject,
                };
                total += 1;
                if matches!(check_e2e(&case.spec, &bad, seed, GATE_PACKETS),
                            Err(r) if !r.clean())
                {
                    caught += 1;
                } else {
                    missed.push(format!("{} / {} / entry {ei}", case.name, st.name));
                }
            }
        }
    }
    assert_eq!(total, 282, "the corpus changed");
    assert!(
        caught >= 259,
        "caught {caught} of {total}; missed:\n{}",
        missed.join("\n")
    );
}

#[test]
fn corruption_is_caught_with_a_minimal_witness() {
    let spec = two_state_spec();
    let device = DeviceProfile::tofino();
    let mut prog = direct_translate(&spec, &device);
    // Plant a bug: the `ty == 7` branch rejects instead of parsing `a_t`.
    let mut corrupted = false;
    for st in &mut prog.states {
        for e in &mut st.entries {
            if e.pattern.to_string() == "0111" {
                e.next = HwNext::Reject;
                corrupted = true;
            }
        }
    }
    assert!(
        corrupted,
        "expected the 0111 entry in the direct translation"
    );

    let report = fuzz(&spec, &[("direct", &prog)], &FuzzConfig::default());
    assert!(!report.clean(), "planted corruption not caught");
    let d = &report.divergences[0];

    // The witness reproduces: spec and program still disagree on it.
    let s = simulate(&spec, &d.input, 64);
    let h = run_program(&prog, &spec.fields, &d.input, 256);
    assert!(
        s.status != h.status || s.dict != h.dict,
        "reported witness does not reproduce"
    );
    // It is minimal: the bug needs `ty = 0111` plus the 8 bits of `a_t`
    // (anything shorter runs out of input on both sides) — 12 bits, and
    // the normalization pass zeroes everything the divergence doesn't need.
    assert_eq!(
        d.input.to_string(),
        "011100000000",
        "not minimal: {}",
        d.input
    );
    assert!(d.shrink_steps > 0, "shrinking never ran");
    // The state paths point at the diverging branch.
    assert!(!d.spec_path.is_empty());
    assert!(!d.impl_path.is_empty());
}

#[test]
fn check_e2e_gates_on_divergence() {
    let spec = two_state_spec();
    let device = DeviceProfile::tofino();
    let clean = direct_translate(&spec, &device);
    let stats = check_e2e(&spec, &clean, 1, 500).expect("clean program must pass");
    assert!(stats.packets > 0);

    let mut bad = clean.clone();
    for st in &mut bad.states {
        for e in &mut st.entries {
            if e.pattern.to_string() == "0111" {
                e.next = HwNext::Reject;
            }
        }
    }
    let err = check_e2e(&spec, &bad, 1, 500).expect_err("corruption must be caught");
    let d = &err.divergences[0];
    assert!(d.shrink_steps > 0);
    // The report is machine-readable and schema-complete.
    let j = Json::parse(&d.to_json().to_string()).unwrap();
    for key in [
        "subject",
        "generator",
        "input",
        "kind",
        "spec_status",
        "impl_status",
    ] {
        assert!(j.get(key).and_then(Json::as_str).is_some(), "missing {key}");
    }
    for key in ["input_bits", "shrink_steps"] {
        assert!(j.get(key).and_then(Json::as_i64).is_some(), "missing {key}");
    }
    for key in ["spec_path", "impl_path"] {
        assert!(j.get(key).and_then(Json::as_arr).is_some(), "missing {key}");
    }
    assert!(j.get("first_diff_field").is_some());
}

#[test]
fn dict_corruption_reports_first_diff_field() {
    let spec = two_state_spec();
    let device = DeviceProfile::tofino();
    let mut prog = direct_translate(&spec, &device);
    // Plant a subtler bug: the `ty == 7` branch accepts without extracting
    // `a_t` — statuses agree, dictionaries differ.
    for st in &mut prog.states {
        for e in &mut st.entries {
            if e.pattern.to_string() == "0111" {
                e.next = HwNext::Accept;
                e.extracts.clear();
            }
        }
    }
    // Shrinking may trade the dictionary mismatch for an even smaller
    // status mismatch (truncation makes the spec run out of input while
    // the corrupted program still accepts), so inspect the raw reports.
    let cfg = FuzzConfig {
        shrink: false,
        max_divergences: 64,
        ..FuzzConfig::default()
    };
    let report = fuzz(&spec, &[("direct", &prog)], &cfg);
    assert!(!report.clean());
    let dict_div = report
        .divergences
        .iter()
        .find(|d| d.first_diff_field.is_some())
        .expect("a dictionary divergence naming the field");
    assert_eq!(dict_div.first_diff_field.as_deref(), Some("a_t.v"));
}
