//! Benchmarks for end-to-end synthesis on representative benchmarks
//! (compile-time distributions backing Table 3's OPT columns), plus a
//! direct comparison of the incremental verification engine against the
//! old fresh-solver-per-query path on the Fig. 7 spec.

use ph_bench::harness::Criterion;
use ph_benchmarks::suite;
use ph_bits::BitString;
use ph_core::bounds::compute_bounds;
use ph_core::cegis::{shape_k, verify_candidate_fresh, IncrementalVerifier, Verdict};
use ph_core::reduce::reduce_spec;
use ph_core::skeleton::{build_shape, ConcreteEntry, ConcreteSkel};
use ph_core::{OptConfig, SynthParams, Synthesizer};
use ph_hw::DeviceProfile;
use ph_sat::Interrupt;
use std::time::Duration;

fn synthesize(spec: &ph_ir::ParserSpec, device: DeviceProfile) -> usize {
    Synthesizer::new(device, OptConfig::all())
        .with_params(SynthParams {
            timeout: Some(Duration::from_secs(120)),
            ..Default::default()
        })
        .synthesize(spec)
        .expect("benchmark compiles")
        .program
        .entry_count()
}

fn main() {
    let mut c = Criterion::default().sample_size(10);

    let eth = suite::parse_ethernet();
    let dash = suite::dash_v1();
    let me1 = suite::me1_entry_merging();

    c.bench_function("synthesis/parse_ethernet_tofino", |b| {
        b.iter(|| synthesize(&eth.spec, DeviceProfile::tofino()))
    });
    c.bench_function("synthesis/parse_ethernet_ipu", |b| {
        b.iter(|| synthesize(&eth.spec, DeviceProfile::ipu()))
    });
    c.bench_function("synthesis/dash_v1_tofino", |b| {
        b.iter(|| synthesize(&dash.spec, DeviceProfile::tofino()))
    });
    c.bench_function("synthesis/me1_param_device", |b| {
        b.iter(|| synthesize(&me1.spec, DeviceProfile::parameterized(4, 2, 16)))
    });

    // Fresh-per-query vs persistent incremental verification on the Fig. 7
    // spec: the same correct candidate checked repeatedly, which is the
    // workload shape of a CEGIS run with `shrink_masks`.
    let spec = ph_p4f::parse_parser(
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
    .unwrap();
    let opts = OptConfig::all();
    let red = reduce_spec(&spec, opts).unwrap();
    let dev = DeviceProfile::tofino();
    let bounds = compute_bounds(&red.spec, 8).unwrap();
    let shape = build_shape(&red, &dev, opts, false, None).unwrap();
    let l = bounds.input_bits.max(1);
    let k_impl = shape_k(&shape, &bounds);
    let k_spec = bounds.spec_iters + 1;
    let acc = shape.accept_code();
    let cand = ConcreteSkel {
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
    };
    let interrupt = Interrupt::default();

    c.bench_function("verify/fig7_fresh_solver_per_query", |b| {
        b.iter(|| {
            let v = verify_candidate_fresh(&shape, &red.spec, &cand, l, k_impl, k_spec, &interrupt)
                .unwrap();
            assert_eq!(v, Verdict::Verified);
        })
    });
    let mut verifier =
        IncrementalVerifier::new(&shape, &red.spec, l, k_impl, k_spec, &interrupt).unwrap();
    c.bench_function("verify/fig7_incremental", |b| {
        b.iter(|| assert_eq!(verifier.verify(&cand), Verdict::Verified))
    });
}
