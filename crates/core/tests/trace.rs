//! Integration test for the observability layer: a real synthesis run with
//! a JSON-lines sink must produce a well-formed trace — every line parses
//! as JSON, timestamps are monotone non-decreasing, span enter/exit events
//! balance — and the run's `SynthStats` must agree with the trace about
//! what happened.

use ph_core::{OptConfig, SynthParams, Synthesizer};
use ph_hw::DeviceProfile;
use ph_obs::{Json, JsonlSink, Level, MemorySink, OwnedEvent, Tracer};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The Fig. 7 two-state spec.
fn fig7_src() -> &'static str {
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
    "#
}

/// A `Write` implementation collecting everything into a shared buffer, so
/// the test can read the JSONL stream back without touching the
/// filesystem.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn synthesis_trace_is_wellformed_jsonl() {
    let spec = ph_p4f::parse_parser(fig7_src()).unwrap();
    let buf = SharedBuf::default();
    let tracer =
        Tracer::new(Arc::new(JsonlSink::new(Box::new(buf.clone())))).with_verbosity(Level::Debug);

    let out = Synthesizer::new(
        DeviceProfile::tofino(),
        OptConfig {
            opt7_parallel: false,
            ..OptConfig::all()
        },
    )
    .with_params(SynthParams {
        timeout: Some(Duration::from_secs(60)),
        tracer: Some(tracer.clone()),
        ..Default::default()
    })
    .synthesize(&spec)
    .expect("fig7 synthesizes");
    tracer.flush();

    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("trace is UTF-8");
    assert!(!text.is_empty(), "trace stream is empty");

    let mut last_t = 0i64;
    let mut open: HashMap<i64, String> = HashMap::new();
    let mut entered: Vec<String> = Vec::new();
    let mut counters: HashMap<String, i64> = HashMap::new();
    for (i, line) in text.lines().enumerate() {
        let ev = Json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: invalid JSON ({e}): {line}", i + 1));
        let t = ev
            .get("t_ns")
            .and_then(Json::as_i64)
            .unwrap_or_else(|| panic!("line {}: no t_ns", i + 1));
        assert!(t >= last_t, "line {}: t_ns {t} < previous {last_t}", i + 1);
        last_t = t;
        match ev.get("ev").and_then(Json::as_str).expect("ev kind") {
            "enter" => {
                let id = ev.get("id").and_then(Json::as_i64).expect("enter id");
                let span = ev.get("span").and_then(Json::as_str).expect("enter span");
                assert!(
                    open.insert(id, span.to_string()).is_none(),
                    "span id {id} entered twice"
                );
                entered.push(span.to_string());
            }
            "exit" => {
                let id = ev.get("id").and_then(Json::as_i64).expect("exit id");
                let span = ev.get("span").and_then(Json::as_str).expect("exit span");
                assert_eq!(
                    open.remove(&id).as_deref(),
                    Some(span),
                    "exit does not match enter for id {id}"
                );
                assert!(
                    ev.get("dur_ns").and_then(Json::as_i64).is_some(),
                    "exit without dur_ns"
                );
            }
            "count" => {
                let name = ev.get("name").and_then(Json::as_str).expect("count name");
                let delta = ev.get("delta").and_then(Json::as_i64).expect("count delta");
                *counters.entry(name.to_string()).or_insert(0) += delta;
            }
            "record" => {
                assert!(ev.get("name").and_then(Json::as_str).is_some());
                assert!(ev.get("value").and_then(Json::as_i64).is_some());
            }
            "hist" => {
                // Flush-time summary: name plus the percentile block.
                assert!(ev.get("name").and_then(Json::as_str).is_some());
                for key in ["count", "min", "max", "mean", "p50", "p90", "p99"] {
                    assert!(ev.get(key).is_some(), "hist event missing {key}: {line}");
                }
            }
            "gauge" | "msg" => {}
            other => panic!("line {}: unknown event kind {other:?}", i + 1),
        }
    }
    assert!(open.is_empty(), "spans never exited: {:?}", open.values());

    // The span taxonomy covers the whole pipeline.
    for must in [
        "synth.total",
        "synth.run",
        "synth.reduce",
        "synth.skeleton",
        "verify.encode",
        "cegis.run",
        "cegis.iter",
        "cegis.assume",
        "cegis.synth",
        "cegis.verify",
        "smt.check",
    ] {
        assert!(
            entered.iter().any(|s| s == must),
            "no {must:?} span in trace; saw {entered:?}"
        );
    }

    // One cegis.iter span per counted CEGIS iteration.
    assert_eq!(
        entered.iter().filter(|s| *s == "cegis.iter").count(),
        out.stats.cegis_iterations,
        "cegis.iter spans disagree with stats"
    );

    // Trace counters agree with the returned statistics.
    // The budget descent verifies a candidate at each successful level.
    assert!(
        counters.get("cegis.verified").copied().unwrap_or(0) >= 1,
        "at least one candidate verifies"
    );
    assert_eq!(
        counters.get("cegis.cex").copied().unwrap_or(0),
        out.stats.counterexamples as i64,
        "counterexample counter disagrees with stats"
    );
    assert_eq!(
        counters.get("shrink.trials").copied().unwrap_or(0),
        out.stats.shrink_trials as i64,
        "shrink-trial counter disagrees with stats"
    );
    // The per-call search deltas partition the verifier's lifetime totals:
    // candidate checks stream as `verify.*`, shrink trials (entry
    // deletions between budget levels and mask shrinking) as `shrink.*`,
    // and nothing else searches with the verification solver.
    // (Propagations are left out: top-level propagation also happens
    // outside the checks.)
    for (row, total) in [
        ("conflicts", out.stats.verify_sat.conflicts),
        ("decisions", out.stats.verify_sat.decisions),
    ] {
        let traced = counters.get(&format!("verify.{row}")).copied().unwrap_or(0)
            + counters.get(&format!("shrink.{row}")).copied().unwrap_or(0);
        assert_eq!(
            traced, total as i64,
            "per-call {row} deltas must sum to the solver total"
        );
    }
    assert!(out.stats.max_verify_conflicts <= out.stats.verify_sat.conflicts);
}

#[test]
fn stats_carry_solver_effort() {
    let spec = ph_p4f::parse_parser(fig7_src()).unwrap();
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

    // The synthesis side must have done real CDCL work, and the verifier
    // must have added its encoding clauses.
    assert!(out.stats.synth_sat.decisions > 0);
    assert!(out.stats.synth_sat.clauses_added > 0);
    assert!(out.stats.verify_sat.clauses_added > 0);
    assert!(out.stats.verify_checks >= 1);

    // The JSON payload round-trips through the parser with both SAT blocks.
    let j = Json::parse(&out.stats.to_json().to_string()).unwrap();
    for block in ["synth_sat", "verify_sat"] {
        let conflicts = j
            .get(block)
            .and_then(|b| b.get("conflicts"))
            .and_then(Json::as_i64);
        assert!(conflicts.is_some(), "{block} missing from stats JSON");
    }
    assert!(j.get("wall_s").and_then(Json::as_f64).is_some());
}

#[test]
fn memory_sink_sees_pipeline_counters() {
    let spec = ph_p4f::parse_parser(fig7_src()).unwrap();
    let sink = Arc::new(MemorySink::default());
    let tracer = Tracer::new(sink.clone()).with_verbosity(Level::Trace);
    Synthesizer::new(
        DeviceProfile::tofino(),
        OptConfig {
            opt7_parallel: false,
            ..OptConfig::all()
        },
    )
    .with_params(SynthParams {
        timeout: Some(Duration::from_secs(60)),
        tracer: Some(tracer),
        ..Default::default()
    })
    .synthesize(&spec)
    .expect("fig7 synthesizes");

    let events = sink.events();
    let gauges: Vec<&str> = events
        .iter()
        .filter_map(|e| match e {
            OwnedEvent::Gauge { name, .. } => Some(name.as_str()),
            _ => None,
        })
        .collect();
    assert!(
        gauges.contains(&"cegis.search_space_bits"),
        "search-space gauge missing; saw {gauges:?}"
    );
    assert!(
        gauges.contains(&"smt.sat_vars"),
        "bit-blasting gauge missing; saw {gauges:?}"
    );
}

#[test]
fn solver_calls_and_final_checks_are_named_spans() {
    let spec = ph_p4f::parse_parser(fig7_src()).unwrap();
    let sink = Arc::new(MemorySink::default());
    Synthesizer::new(
        DeviceProfile::tofino(),
        OptConfig {
            opt7_parallel: false,
            ..OptConfig::all()
        },
    )
    .with_params(SynthParams {
        timeout: Some(Duration::from_secs(60)),
        tracer: Some(Tracer::new(sink.clone())),
        e2e_samples: 64,
        ..Default::default()
    })
    .synthesize(&spec)
    .expect("fig7 synthesizes");
    let entered: Vec<(String, u64, Option<u64>)> = sink
        .events()
        .into_iter()
        .filter_map(|e| match e {
            OwnedEvent::Enter { name, id, parent } => Some((name, id, parent)),
            _ => None,
        })
        .collect();
    let name_of = |id: Option<u64>| {
        entered
            .iter()
            .find(|(_, i, _)| Some(*i) == id)
            .map(|(n, ..)| n.as_str())
    };
    let parents = |child: &str| -> Vec<Option<&str>> {
        entered
            .iter()
            .filter(|(n, ..)| n == child)
            .map(|(_, _, p)| name_of(*p))
            .collect()
    };
    // Every solver call splits into bit-blasting and the SAT search.
    let checks = parents("smt.check").len();
    assert!(checks > 0);
    for child in ["smt.blast", "sat.solve"] {
        let ps = parents(child);
        assert_eq!(ps.len(), checks, "one {child} per smt.check");
        assert!(
            ps.iter().all(|p| *p == Some("smt.check")),
            "{child}: {ps:?}"
        );
    }
    // The winning program is validated, then fuzzed end to end, once.
    assert_eq!(parents("synth.validate").len(), 1);
    assert_eq!(parents("synth.fuzz_e2e").len(), 1);
}
