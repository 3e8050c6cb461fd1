//! Cross-crate integration tests: front end → synthesis → hardware
//! simulation → validation, exercising the public facade API only.

use parserhawk::baseline::{compile_dp, compile_ipu, compile_tofino};
use parserhawk::benchmarks::packets::PacketBuilder;
use parserhawk::benchmarks::{registry, rewrite, suite};
use parserhawk::core::fuzz::{check_e2e, GATE_PACKETS};
use parserhawk::core::{OptConfig, SynthError, SynthParams, Synthesizer};
use parserhawk::hw::{check_program, run_program, DeviceProfile};
use parserhawk::ir::{simulate, ParseStatus};
use parserhawk::p4f::parse_parser;
use std::time::{Duration, Instant};

fn params(secs: u64) -> SynthParams {
    SynthParams {
        timeout: Some(Duration::from_secs(secs)),
        ..Default::default()
    }
}

/// Table 1 / Fig. 7: both example specs synthesize, and the outputs agree
/// with the spec on every 8-bit input.
#[test]
fn fig7_specs_synthesize_and_match_exhaustively() {
    let sources = [
        // Spec1: unconditional.
        r#"header h_t { f0 : 4; f1 : 4; }
           parser {
               state start { extract(h_t.f0); transition s1; }
               state s1 { extract(h_t.f1); transition accept; }
           }"#,
        // Spec2: conditional on the first bit.
        r#"header h_t { f0 : 4; f1 : 4; }
           parser {
               state start {
                   extract(h_t.f0);
                   transition select(h_t.f0[0:1]) {
                       0b0 : s1;
                       default : accept;
                   }
               }
               state s1 { extract(h_t.f1); transition accept; }
           }"#,
    ];
    for (i, src) in sources.iter().enumerate() {
        let spec = parse_parser(src).unwrap();
        let out = Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
            .with_params(params(60))
            .synthesize(&spec)
            .unwrap_or_else(|e| panic!("spec{i}: {e}"));
        for v in 0..=255u64 {
            let input = parserhawk::bits::BitString::from_u64(v, 8);
            let s = simulate(&spec, &input, 8);
            let h = run_program(&out.program, &spec.fields, &input, 16);
            assert_eq!(s.status, h.status, "spec{i} input {input}");
            assert_eq!(s.dict, h.dict, "spec{i} input {input}");
        }
    }
}

/// ParserHawk compiles every registry case for Tofino within its budget and
/// never uses more entries than the vendor-style baseline.
#[test]
fn registry_cases_compile_for_tofino_and_beat_baseline() {
    let device = DeviceProfile::tofino();
    for case in registry() {
        // The SAI V2 family is hours-scale in the paper itself (2292 s
        // base, 9353 s mutated on their testbed); it runs in the table3
        // harness under its long budget, not here.
        if case.name.starts_with("Sai V2") {
            continue;
        }
        let out = Synthesizer::new(device.clone(), OptConfig::all())
            .with_params(params(90))
            .synthesize(&case.spec)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        assert!(
            check_program(&out.program, &case.spec.fields).is_empty(),
            "{}",
            case.name
        );
        check_e2e(&case.spec, &out.program, 7, GATE_PACKETS)
            .unwrap_or_else(|e| panic!("{}: {e}", case.name));
        if let Ok(bl) = compile_tofino(&case.spec, &device) {
            assert!(
                out.program.entry_count() <= bl.entry_count(),
                "{}: ParserHawk {} > baseline {}",
                case.name,
                out.program.entry_count(),
                bl.entry_count()
            );
        }
    }
}

/// Rewrite invariance (§7.2): ParserHawk's Tofino entry count is identical
/// across semantic-preserving rewrites of the same parser.
#[test]
fn parserhawk_is_invariant_to_rewrites() {
    let base = suite::parse_ethernet();
    let device = DeviceProfile::tofino();
    let variants = [
        base.spec.clone(),
        rewrite::r1_add_redundant(&base.spec),
        rewrite::r2_add_unreachable(&base.spec),
        rewrite::r3_split_entries(&base.spec),
        rewrite::r5_split_states(&base.spec),
    ];
    let counts: Vec<usize> = variants
        .iter()
        .map(|spec| {
            Synthesizer::new(device.clone(), OptConfig::all())
                .with_params(params(90))
                .synthesize(spec)
                .expect("compiles")
                .program
                .entry_count()
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "counts varied: {counts:?}"
    );
}

/// The baselines' documented failure modes fire on the right inputs.
#[test]
fn baseline_failure_modes() {
    let mpls = suite::parse_mpls();
    let err = compile_ipu(&mpls.spec, &DeviceProfile::ipu()).unwrap_err();
    assert_eq!(err.to_string(), "Parser loop rej");

    let wide = suite::large_tran_key();
    let err = compile_tofino(&wide.spec, &DeviceProfile::tofino().with_key_limit(8)).unwrap_err();
    assert!(err.to_string().starts_with("Wide tran key"));

    let wild = parse_parser(
        r#"header h { v : 4; }
           parser { state start { extract(h);
               transition select(h.v) { 0b1**0 : reject; default : accept; } } }"#,
    )
    .unwrap();
    let err = compile_dp(&wild, &DeviceProfile::tofino()).unwrap_err();
    assert!(err.to_string().contains("wildcard"));
}

/// End-to-end packet check (the §7.1 bmv2/Scapy substitute): a crafted
/// TCP/IP packet parses identically through spec and synthesized program.
#[test]
fn crafted_packet_roundtrip() {
    let spec = parse_parser(
        r#"
        header ethernet_t { dst : 48; src : 48; etherType : 16; }
        header ipv4_t { ver_ihl : 8; dscp : 8; len : 16; id : 16; frag : 16;
                        ttl : 8; proto : 8; csum : 16; srcip : 32; dstip : 32; }
        header tcp_t { sport : 16; dport : 16; }
        parser {
            state start {
                extract(ethernet_t);
                transition select(ethernet_t.etherType) {
                    0x0800 : parse_ipv4;
                    default : accept;
                }
            }
            state parse_ipv4 {
                extract(ipv4_t);
                transition select(ipv4_t.proto) {
                    6 : parse_tcp;
                    default : accept;
                }
            }
            state parse_tcp { extract(tcp_t); transition accept; }
        }
        "#,
    )
    .unwrap();
    let out = Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
        .with_params(params(120))
        .synthesize(&spec)
        .expect("synthesis");

    let pkt = PacketBuilder::new()
        .ethernet([2; 6], [1; 6], 0x0800)
        .ipv4(6, 0xc0a80001, 0xc0a80002)
        .tcp(4242, 80)
        .bits();
    let s = simulate(&spec, &pkt, 16);
    let h = run_program(&out.program, &spec.fields, &pkt, 32);
    assert_eq!(s.status, ParseStatus::Accept);
    assert_eq!(s.dict, h.dict);
    let dstip = spec.field_by_name("ipv4_t.dstip").unwrap();
    assert_eq!(h.dict.get(dstip).unwrap().to_u64(), 0xc0a80002);
}

/// Retargeting: the same spec compiles for both devices and the IPU output
/// respects stage monotonicity.
#[test]
fn retarget_tofino_and_ipu() {
    let b = suite::parse_icmp();
    for device in [DeviceProfile::tofino(), DeviceProfile::ipu()] {
        let out = Synthesizer::new(device.clone(), OptConfig::all())
            .with_params(params(90))
            .synthesize(&b.spec)
            .unwrap_or_else(|e| panic!("{}: {e}", device.name));
        assert!(check_program(&out.program, &b.spec.fields).is_empty());
        if device.name == "ipu" {
            assert!(out.program.stages_used() > 1);
        }
    }
}

/// The naive encoding (all optimizations off) still works on a tiny spec —
/// honesty check for the Orig column.
#[test]
fn naive_encoding_works_on_tiny_spec() {
    let spec = parse_parser(
        r#"header h_t { v : 2; }
           parser {
               state start {
                   extract(h_t);
                   transition select(h_t.v) { 2 : accept; default : reject; }
               }
           }"#,
    )
    .unwrap();
    let opt = Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
        .with_params(params(60))
        .synthesize(&spec)
        .expect("opt");
    let orig = Synthesizer::new(DeviceProfile::tofino(), OptConfig::none())
        .with_params(params(120))
        .synthesize(&spec)
        .expect("orig");
    assert!(orig.stats.search_space_bits > opt.stats.search_space_bits);
    assert_eq!(opt.program.entry_count(), orig.program.entry_count());
}

/// Deadlines need no timer thread: a zero budget trips at the first poll,
/// both through the Opt7 race (Tofino, loop-free spec, when two cores are
/// available) and through the single pipelined skeleton (IPU).
#[test]
fn zero_timeout_times_out_on_both_devices() {
    let b = suite::parse_icmp();
    for device in [DeviceProfile::tofino(), DeviceProfile::ipu()] {
        let r = Synthesizer::new(device.clone(), OptConfig::all())
            .with_params(SynthParams {
                timeout: Some(Duration::ZERO),
                ..Default::default()
            })
            .synthesize(&b.spec);
        match r {
            Err(SynthError::Timeout(_)) => {}
            Err(e) => panic!("{}: expected a timeout, got {e}", device.name),
            Ok(_) => panic!("{}: compiled under a zero budget", device.name),
        }
    }
}

/// A short deadline stops an hours-scale compile promptly; whatever it
/// returns is either a timeout or a program that still validates.
#[test]
fn short_deadline_stops_a_hard_compile() {
    let b = suite::sai_v2();
    let t0 = Instant::now();
    let r = Synthesizer::new(DeviceProfile::tofino(), OptConfig::all())
        .with_params(SynthParams {
            timeout: Some(Duration::from_millis(200)),
            ..Default::default()
        })
        .synthesize(&b.spec);
    let wall = t0.elapsed();
    assert!(wall < Duration::from_secs(10), "took {wall:?}");
    match r {
        Err(SynthError::Timeout(_)) => {}
        Ok(out) => {
            if let Err(e) = check_e2e(&b.spec, &out.program, 7, GATE_PACKETS) {
                panic!("best-so-far program fails validation: {e}");
            }
        }
        Err(e) => panic!("expected a timeout or a program, got {e}"),
    }
}
