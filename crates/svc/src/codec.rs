//! JSON codecs for the service's wire protocol and on-disk cache entries.
//!
//! The workspace has no serde; these functions translate the IR and
//! hardware program types to and from [`ph_obs::Json`] by hand, and the
//! statistics through the codec generated from their `ph_obs::stats!`
//! declaration.  Every
//! `*_from_json` is total over arbitrary JSON input — malformed documents
//! yield a [`CodecError`], never a panic — because both the daemon (network
//! input) and the cache (disk input that may be truncated or bit-flipped)
//! decode untrusted bytes.
//!
//! Conventions:
//!
//! * ternary patterns are their display strings (`"1**0"`, `""` for a
//!   zero-width always-match pattern);
//! * state/field references are table indices (specs and programs are
//!   positional; names are carried alongside for display only);
//! * next-state targets are the string `"accept"`/`"reject"` or an integer
//!   state index.

use ph_core::SynthStats;
use ph_hw::{Arch, DeviceProfile, HwEntry, HwNext, HwState, HwStateId, TcamProgram};
use ph_ir::{
    Field, FieldId, FieldKind, KeyPart, NextState, ParserSpec, State, StateId, Transition, VarLen,
};
use ph_obs::Json;
use std::fmt;

/// A decoding failure: which path failed and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(msg: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(msg.into()))
}

fn get<'a>(j: &'a Json, key: &str) -> Result<&'a Json, CodecError> {
    match j.get(key) {
        Some(v) => Ok(v),
        None => err(format!("missing field {key:?}")),
    }
}

fn get_usize(j: &Json, key: &str) -> Result<usize, CodecError> {
    match get(j, key)?.as_i64() {
        Some(v) if v >= 0 => Ok(v as usize),
        _ => err(format!("field {key:?} is not a non-negative integer")),
    }
}

fn get_i64(j: &Json, key: &str) -> Result<i64, CodecError> {
    match get(j, key)?.as_i64() {
        Some(v) => Ok(v),
        None => err(format!("field {key:?} is not an integer")),
    }
}

fn get_str<'a>(j: &'a Json, key: &str) -> Result<&'a str, CodecError> {
    match get(j, key)?.as_str() {
        Some(s) => Ok(s),
        None => err(format!("field {key:?} is not a string")),
    }
}

fn get_arr<'a>(j: &'a Json, key: &str) -> Result<&'a [Json], CodecError> {
    match get(j, key)?.as_arr() {
        Some(a) => Ok(a),
        None => err(format!("field {key:?} is not an array")),
    }
}

fn ternary_from_str(s: &str) -> Result<ph_bits::Ternary, CodecError> {
    match ph_bits::Ternary::parse(s) {
        Some(t) => Ok(t),
        None => err(format!("bad ternary pattern {s:?}")),
    }
}

fn index_array(items: &[Json], what: &str) -> Result<Vec<usize>, CodecError> {
    items
        .iter()
        .map(|v| match v.as_i64() {
            Some(i) if i >= 0 => Ok(i as usize),
            _ => err(format!("{what}: expected a non-negative integer index")),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Next-state targets (shared by specs and programs).
// ---------------------------------------------------------------------------

fn spec_next_to_json(n: NextState) -> Json {
    match n {
        NextState::State(s) => Json::Int(s.0 as i64),
        NextState::Accept => Json::Str("accept".into()),
        NextState::Reject => Json::Str("reject".into()),
    }
}

fn spec_next_from_json(j: &Json) -> Result<NextState, CodecError> {
    match j {
        Json::Str(s) if s == "accept" => Ok(NextState::Accept),
        Json::Str(s) if s == "reject" => Ok(NextState::Reject),
        _ => match j.as_i64() {
            Some(i) if i >= 0 => Ok(NextState::State(StateId(i as usize))),
            _ => err("next: expected \"accept\", \"reject\" or a state index"),
        },
    }
}

fn hw_next_to_json(n: HwNext) -> Json {
    match n {
        HwNext::State(s) => Json::Int(s.0 as i64),
        HwNext::Accept => Json::Str("accept".into()),
        HwNext::Reject => Json::Str("reject".into()),
    }
}

fn hw_next_from_json(j: &Json) -> Result<HwNext, CodecError> {
    match j {
        Json::Str(s) if s == "accept" => Ok(HwNext::Accept),
        Json::Str(s) if s == "reject" => Ok(HwNext::Reject),
        _ => match j.as_i64() {
            Some(i) if i >= 0 => Ok(HwNext::State(HwStateId(i as usize))),
            _ => err("next: expected \"accept\", \"reject\" or a state index"),
        },
    }
}

// ---------------------------------------------------------------------------
// Key parts (shared by specs and programs).
// ---------------------------------------------------------------------------

fn key_part_to_json(kp: &KeyPart) -> Json {
    match *kp {
        KeyPart::Slice { field, start, end } => Json::obj()
            .with("field", field.0 as i64)
            .with("start", start as i64)
            .with("end", end as i64),
        KeyPart::Lookahead { start, end } => Json::obj()
            .with("lookahead", true)
            .with("start", start as i64)
            .with("end", end as i64),
    }
}

fn key_part_from_json(j: &Json) -> Result<KeyPart, CodecError> {
    let start = get_usize(j, "start")?;
    let end = get_usize(j, "end")?;
    if j.get("lookahead").and_then(Json::as_bool) == Some(true) {
        Ok(KeyPart::Lookahead { start, end })
    } else {
        Ok(KeyPart::Slice {
            field: FieldId(get_usize(j, "field")?),
            start,
            end,
        })
    }
}

fn key_to_json(key: &[KeyPart]) -> Json {
    Json::Arr(key.iter().map(key_part_to_json).collect())
}

fn key_from_json(j: &Json, key: &str) -> Result<Vec<KeyPart>, CodecError> {
    get_arr(j, key)?.iter().map(key_part_from_json).collect()
}

// ---------------------------------------------------------------------------
// Parser specifications.
// ---------------------------------------------------------------------------

/// A [`ParserSpec`] as a JSON document.
pub fn spec_to_json(spec: &ParserSpec) -> Json {
    let mut fields = Json::arr();
    for f in &spec.fields {
        let mut o = Json::obj()
            .with("name", f.name.as_str())
            .with("width", f.width as i64);
        if let FieldKind::Var(v) = &f.kind {
            o.set(
                "var",
                Json::obj()
                    .with("control", v.control.0 as i64)
                    .with("multiplier", v.multiplier)
                    .with("offset", v.offset),
            );
        }
        fields.push(o);
    }
    let mut states = Json::arr();
    for s in &spec.states {
        let mut transitions = Json::arr();
        for t in &s.transitions {
            transitions.push(
                Json::obj()
                    .with("pattern", t.pattern.to_string())
                    .with("next", spec_next_to_json(t.next)),
            );
        }
        states.push(
            Json::obj()
                .with("name", s.name.as_str())
                .with(
                    "extracts",
                    Json::Arr(s.extracts.iter().map(|f| Json::Int(f.0 as i64)).collect()),
                )
                .with("key", key_to_json(&s.key))
                .with("transitions", transitions)
                .with("default", spec_next_to_json(s.default)),
        );
    }
    Json::obj()
        .with("fields", fields)
        .with("states", states)
        .with("start", spec.start.0 as i64)
}

/// Decodes a [`ParserSpec`]; the caller should still run
/// [`ParserSpec::validate`] (the codec checks shape, not cross-references).
pub fn spec_from_json(j: &Json) -> Result<ParserSpec, CodecError> {
    let mut fields = Vec::new();
    for f in get_arr(j, "fields")? {
        let kind = match f.get("var") {
            Some(v) => FieldKind::Var(VarLen {
                control: FieldId(get_usize(v, "control")?),
                multiplier: get_i64(v, "multiplier")?,
                offset: get_i64(v, "offset")?,
            }),
            None => FieldKind::Fixed,
        };
        fields.push(Field {
            name: get_str(f, "name")?.to_string(),
            width: get_usize(f, "width")?,
            kind,
        });
    }
    let mut states = Vec::new();
    for s in get_arr(j, "states")? {
        let mut transitions = Vec::new();
        for t in get_arr(s, "transitions")? {
            transitions.push(Transition {
                pattern: ternary_from_str(get_str(t, "pattern")?)?,
                next: spec_next_from_json(get(t, "next")?)?,
            });
        }
        states.push(State {
            name: get_str(s, "name")?.to_string(),
            extracts: index_array(get_arr(s, "extracts")?, "extracts")?
                .into_iter()
                .map(FieldId)
                .collect(),
            key: key_from_json(s, "key")?,
            transitions,
            default: spec_next_from_json(get(s, "default")?)?,
        });
    }
    Ok(ParserSpec {
        fields,
        states,
        start: StateId(get_usize(j, "start")?),
    })
}

// ---------------------------------------------------------------------------
// Device profiles.
// ---------------------------------------------------------------------------

fn arch_name(a: Arch) -> &'static str {
    match a {
        Arch::SingleTable => "single_table",
        Arch::Pipelined => "pipelined",
        Arch::Interleaved => "interleaved",
    }
}

fn arch_from_name(s: &str) -> Result<Arch, CodecError> {
    match s {
        "single_table" => Ok(Arch::SingleTable),
        "pipelined" => Ok(Arch::Pipelined),
        "interleaved" => Ok(Arch::Interleaved),
        other => err(format!("unknown arch {other:?}")),
    }
}

/// A [`DeviceProfile`] as a JSON document.
pub fn device_to_json(d: &DeviceProfile) -> Json {
    Json::obj()
        .with("name", d.name.as_str())
        .with("arch", arch_name(d.arch))
        .with("key_limit", d.key_limit as i64)
        .with("tcam_limit", d.tcam_limit as i64)
        .with("lookahead_limit", d.lookahead_limit as i64)
        .with("extraction_limit", d.extraction_limit as i64)
        .with("stage_limit", d.stage_limit as i64)
}

/// Decodes a [`DeviceProfile`].
pub fn device_from_json(j: &Json) -> Result<DeviceProfile, CodecError> {
    Ok(DeviceProfile {
        name: get_str(j, "name")?.to_string(),
        arch: arch_from_name(get_str(j, "arch")?)?,
        key_limit: get_usize(j, "key_limit")?,
        tcam_limit: get_usize(j, "tcam_limit")?,
        lookahead_limit: get_usize(j, "lookahead_limit")?,
        extraction_limit: get_usize(j, "extraction_limit")?,
        stage_limit: get_usize(j, "stage_limit")?,
    })
}

/// Resolves a device by canned name, accepting the three paper profiles.
pub fn device_by_name(name: &str) -> Option<DeviceProfile> {
    match name {
        "tofino" => Some(DeviceProfile::tofino()),
        "ipu" => Some(DeviceProfile::ipu()),
        "trident" => Some(DeviceProfile::trident()),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// TCAM programs.
// ---------------------------------------------------------------------------

/// A [`TcamProgram`] as a JSON document.
pub fn program_to_json(p: &TcamProgram) -> Json {
    let mut states = Json::arr();
    for s in &p.states {
        let mut entries = Json::arr();
        for e in &s.entries {
            entries.push(
                Json::obj()
                    .with("pattern", e.pattern.to_string())
                    .with(
                        "extracts",
                        Json::Arr(e.extracts.iter().map(|f| Json::Int(f.0 as i64)).collect()),
                    )
                    .with("next", hw_next_to_json(e.next)),
            );
        }
        states.push(
            Json::obj()
                .with("name", s.name.as_str())
                .with("stage", s.stage as i64)
                .with("key", key_to_json(&s.key))
                .with("entries", entries),
        );
    }
    Json::obj()
        .with("device", device_to_json(&p.device))
        .with("states", states)
        .with("start", p.start.0 as i64)
}

/// Decodes a [`TcamProgram`].
pub fn program_from_json(j: &Json) -> Result<TcamProgram, CodecError> {
    let device = device_from_json(get(j, "device")?)?;
    let mut states = Vec::new();
    for s in get_arr(j, "states")? {
        let mut entries = Vec::new();
        for e in get_arr(s, "entries")? {
            entries.push(HwEntry {
                pattern: ternary_from_str(get_str(e, "pattern")?)?,
                extracts: index_array(get_arr(e, "extracts")?, "extracts")?
                    .into_iter()
                    .map(FieldId)
                    .collect(),
                next: hw_next_from_json(get(e, "next")?)?,
            });
        }
        states.push(HwState {
            name: get_str(s, "name")?.to_string(),
            stage: get_usize(s, "stage")?,
            key: key_from_json(s, "key")?,
            entries,
        });
    }
    let start = get_usize(j, "start")?;
    if start >= states.len() {
        return err(format!("start state {start} out of range"));
    }
    // The shape the program's users index by: patterns as wide as their
    // state's key, transitions to existing states.
    for (i, s) in states.iter().enumerate() {
        for e in &s.entries {
            if e.pattern.width() != s.key_width() {
                return err(format!(
                    "state {i}: a {}-bit pattern on a {}-bit key",
                    e.pattern.width(),
                    s.key_width()
                ));
            }
            if let HwNext::State(HwStateId(n)) = e.next {
                if n >= states.len() {
                    return err(format!("state {i}: next state {n} out of range"));
                }
            }
        }
    }
    Ok(TcamProgram {
        device,
        states,
        start: HwStateId(start),
    })
}

// ---------------------------------------------------------------------------
// Synthesis statistics.
// ---------------------------------------------------------------------------

/// Decodes [`SynthStats::to_json`]: every key must be present and well
/// typed; the latency histograms decode empty.
pub fn stats_from_json(j: &Json) -> Result<SynthStats, CodecError> {
    SynthStats::from_json(j).map_err(CodecError)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ph_bits::Ternary;
    use ph_ir::Field;
    use ph_sat::SolverStats;

    fn sample_spec() -> ParserSpec {
        ParserSpec {
            fields: vec![
                Field::fixed("eth.type", 16),
                Field {
                    name: "opts".into(),
                    width: 320,
                    kind: FieldKind::Var(VarLen {
                        control: FieldId(0),
                        multiplier: 32,
                        offset: -160,
                    }),
                },
            ],
            states: vec![
                State {
                    name: "start".into(),
                    extracts: vec![FieldId(0)],
                    key: vec![
                        KeyPart::Slice {
                            field: FieldId(0),
                            start: 0,
                            end: 4,
                        },
                        KeyPart::Lookahead { start: 0, end: 2 },
                    ],
                    transitions: vec![Transition {
                        pattern: Ternary::parse("01**1*").unwrap(),
                        next: NextState::State(StateId(1)),
                    }],
                    default: NextState::Reject,
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

    #[test]
    fn spec_round_trips() {
        let spec = sample_spec();
        assert_eq!(spec.validate(), Ok(()));
        let j = spec_to_json(&spec);
        let text = j.to_pretty();
        let back = spec_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn device_round_trips() {
        for d in [
            DeviceProfile::tofino(),
            DeviceProfile::ipu(),
            DeviceProfile::trident(),
            DeviceProfile::parameterized(4, 2, 10),
        ] {
            let j = device_to_json(&d);
            let back = device_from_json(&Json::parse(&j.to_pretty()).unwrap()).unwrap();
            assert_eq!(back, d);
        }
    }

    #[test]
    fn program_round_trips() {
        let p = TcamProgram {
            device: DeviceProfile::trident(),
            states: vec![
                HwState {
                    name: "slot0".into(),
                    stage: 0,
                    key: vec![],
                    entries: vec![HwEntry {
                        pattern: Ternary::any(0),
                        extracts: vec![FieldId(0)],
                        next: HwNext::State(HwStateId(1)),
                    }],
                },
                HwState {
                    name: "slot1".into(),
                    stage: 1,
                    key: vec![KeyPart::Slice {
                        field: FieldId(0),
                        start: 0,
                        end: 3,
                    }],
                    entries: vec![
                        HwEntry {
                            pattern: Ternary::parse("1*0").unwrap(),
                            extracts: vec![FieldId(1), FieldId(2)],
                            next: HwNext::Accept,
                        },
                        HwEntry::catch_all(3, HwNext::Reject),
                    ],
                },
            ],
            start: HwStateId(0),
        };
        let text = program_to_json(&p).to_pretty();
        let back = program_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, p);

        // Well-formed JSON describing a program of the wrong shape.
        for (from, to) in [("\"1*0\"", "\"1*01\""), ("\"next\": 1", "\"next\": 2")] {
            assert!(text.contains(from));
            let bad = Json::parse(&text.replacen(from, to, 1)).unwrap();
            assert!(program_from_json(&bad).is_err(), "accepted {from} -> {to}");
        }
    }

    /// `keys` of `template`, each scalar row given a distinct value (a
    /// float for float rows); a nested object whose keys are
    /// `SolverStats::KEYS` is filled the same way, other objects (the
    /// histogram summaries, which decode empty) are kept as they are.
    fn distinct_payload(keys: &[&str], template: &Json, next: &mut i64) -> Json {
        let mut p = Json::obj();
        for &key in keys {
            *next += 1;
            let v = match template.get(key).unwrap() {
                Json::Int(_) => Json::Int(*next),
                Json::Float(_) => Json::Float(*next as f64 + 0.5),
                nested if object_keys(nested) == SolverStats::KEYS => {
                    distinct_payload(SolverStats::KEYS, nested, next)
                }
                other => other.clone(),
            };
            p.set(key, v);
        }
        p
    }

    fn object_keys(j: &Json) -> Vec<&str> {
        j.as_obj()
            .map_or(vec![], |f| f.iter().map(|(k, _)| k.as_str()).collect())
    }

    fn without(j: &Json, key: &str) -> Json {
        Json::Obj(
            j.as_obj()
                .unwrap()
                .iter()
                .filter(|(k, _)| k != key)
                .cloned()
                .collect(),
        )
    }

    #[test]
    fn stats_round_trip_every_row_and_require_every_key() {
        let template = SynthStats::default().to_json();
        let p = distinct_payload(SynthStats::KEYS, &template, &mut 0);
        assert_eq!(object_keys(&p), SynthStats::KEYS);
        let back = stats_from_json(&Json::parse(&p.to_pretty()).unwrap()).unwrap();
        assert_eq!(back.to_json(), p);

        for &key in SynthStats::KEYS {
            assert!(
                stats_from_json(&without(&p, key)).is_err(),
                "decoded without {key:?}"
            );
            let block = p.get(key).unwrap();
            if object_keys(block) != SolverStats::KEYS {
                continue;
            }
            for &inner in SolverStats::KEYS {
                let mut q = p.clone();
                q.set(key, without(block, inner));
                assert!(
                    stats_from_json(&q).is_err(),
                    "decoded without {key}.{inner}"
                );
            }
        }
    }

    #[test]
    fn malformed_documents_error_without_panicking() {
        for text in [
            "{}",
            "[]",
            "null",
            r#"{"fields": 3, "states": [], "start": 0}"#,
            r#"{"fields": [], "states": [{"name":"s"}], "start": 0}"#,
            r#"{"fields": [{"name":"f","width":-4}], "states": [], "start": 0}"#,
        ] {
            let j = Json::parse(text).unwrap();
            assert!(spec_from_json(&j).is_err(), "accepted {text}");
        }
        let j = Json::parse(r#"{"device": {}, "states": [], "start": 0}"#).unwrap();
        assert!(program_from_json(&j).is_err());
        assert!(stats_from_json(&Json::parse("{}").unwrap()).is_err());
        assert!(device_from_json(&Json::parse(r#"{"name":"x","arch":"weird"}"#).unwrap()).is_err());
    }
}
