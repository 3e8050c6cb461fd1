//! The daemon's wire protocol: line-delimited JSON over TCP.
//!
//! Each request is one JSON object on one line of at most
//! [`crate::server::MAX_REQUEST_BYTES`]; each response is one JSON object
//! on one line.  A connection may issue any number of requests, one at a
//! time: every request gets exactly one reply, and the daemon keeps
//! nothing of it afterwards.  Responses always carry `"ok": true|false`;
//! failures add `"error"`, and queue-full rejections additionally set
//! `"rejected": true` so clients can distinguish backpressure from
//! malformed input.
//!
//! Operations (`"op"`):
//!
//! | op         | request fields                                        | reply                      |
//! |------------|-------------------------------------------------------|----------------------------|
//! | `ping`     | —                                                     | `pong`                     |
//! | `submit`   | `spec` (JSON spec) *or* `p4f` (source text); `device` | `key`, `deduped`,          |
//! |            | (canned name or profile object); optional `opts`,     | `status`, `cache_hit`,     |
//! |            | `deadline_ms`, `wait` (only `true` is accepted)       | `program`, `program_text`, |
//! |            |                                                       | `stats`                    |
//! | `stats`    | —                                                     | the daemon's counters      |
//! | `shutdown` | — (drain: stop accepting, finish queued work, exit)   | `draining`                 |
//!
//! Any other op is an `unknown op` error.  A submit's `stats` carry the
//! run's scalar statistics; histograms travel as bucket-less summaries
//! and decode as empty.

use crate::codec::{self, CodecError};
use ph_core::OptConfig;
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::Json;

/// A parsed submit request.  The daemon answers it with one reply that
/// carries the synthesized program; there is no job id to poll.
#[derive(Clone, Debug)]
pub struct SubmitReq {
    /// The specification to synthesize (already parsed and validated).
    pub spec: ParserSpec,
    /// Target device.
    pub device: DeviceProfile,
    /// Optimization configuration (defaults to [`OptConfig::all`]).
    pub opts: OptConfig,
    /// Per-request wall-clock budget, mapped to
    /// [`ph_core::SynthParams::timeout`].
    pub deadline_ms: Option<u64>,
}

/// A parsed request.
#[derive(Clone, Debug)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Synthesize a spec; the reply carries the result.
    Submit(Box<SubmitReq>),
    /// Service counters.
    Stats,
    /// Graceful drain.
    Shutdown,
}

/// [`OptConfig`] as a JSON object.
pub fn opts_to_json(o: OptConfig) -> Json {
    Json::obj()
        .with("opt1_spec_keys", o.opt1_spec_keys)
        .with("opt2_bitwidth", o.opt2_bitwidth)
        .with("opt3_prealloc", o.opt3_prealloc)
        .with("opt4_constants", o.opt4_constants)
        .with("opt5_grouping", o.opt5_grouping)
        .with("opt6_fixed_varbit", o.opt6_fixed_varbit)
        .with("opt7_parallel", o.opt7_parallel)
}

/// Decodes an [`OptConfig`]; absent flags keep their
/// [`OptConfig::all`] default.
pub fn opts_from_json(j: &Json) -> Result<OptConfig, CodecError> {
    let mut o = OptConfig::all();
    let flag = |key: &str, slot: &mut bool| -> Result<(), CodecError> {
        match j.get(key) {
            None => Ok(()),
            Some(v) => match v.as_bool() {
                Some(b) => {
                    *slot = b;
                    Ok(())
                }
                None => Err(CodecError(format!("opts field {key:?} is not a bool"))),
            },
        }
    };
    flag("opt1_spec_keys", &mut o.opt1_spec_keys)?;
    flag("opt2_bitwidth", &mut o.opt2_bitwidth)?;
    flag("opt3_prealloc", &mut o.opt3_prealloc)?;
    flag("opt4_constants", &mut o.opt4_constants)?;
    flag("opt5_grouping", &mut o.opt5_grouping)?;
    flag("opt6_fixed_varbit", &mut o.opt6_fixed_varbit)?;
    flag("opt7_parallel", &mut o.opt7_parallel)?;
    Ok(o)
}

/// Parses one request line.
///
/// # Errors
///
/// Malformed JSON, unknown ops, missing fields, specs that fail
/// [`ParserSpec::validate`] and P4 fragments that fail to parse all
/// surface here, so the connection handler can answer with a protocol
/// error instead of dying.
pub fn parse_request(line: &str) -> Result<Request, CodecError> {
    let doc = Json::parse(line).map_err(|e| CodecError(format!("bad request JSON: {e}")))?;
    let op = doc
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| CodecError("missing \"op\"".into()))?;
    match op {
        "ping" => Ok(Request::Ping),
        "stats" => Ok(Request::Stats),
        "shutdown" => Ok(Request::Shutdown),
        "submit" => {
            // A submit is always answered inline; `wait` survives only as
            // an explicit `true`.
            if doc.get("wait").is_some_and(|w| w.as_bool() != Some(true)) {
                return Err(CodecError("\"wait\" must be true".into()));
            }
            let spec = match (doc.get("spec"), doc.get("p4f").and_then(Json::as_str)) {
                (Some(spec_json), None) => codec::spec_from_json(spec_json)?,
                (None, Some(src)) => {
                    ph_p4f::parse_parser(src).map_err(|e| CodecError(format!("p4f parse: {e}")))?
                }
                (Some(_), Some(_)) => {
                    return Err(CodecError("give \"spec\" or \"p4f\", not both".into()))
                }
                (None, None) => return Err(CodecError("missing \"spec\" or \"p4f\"".into())),
            };
            spec.validate()
                .map_err(|e| CodecError(format!("invalid spec: {e}")))?;
            let device = match doc.get("device") {
                None => DeviceProfile::tofino(),
                Some(Json::Str(name)) => codec::device_by_name(name)
                    .ok_or_else(|| CodecError(format!("unknown device {name:?}")))?,
                Some(obj) => codec::device_from_json(obj)?,
            };
            let opts = match doc.get("opts") {
                None => OptConfig::all(),
                Some(o) => opts_from_json(o)?,
            };
            let deadline_ms = match doc.get("deadline_ms") {
                None => None,
                Some(v) => match v.as_i64() {
                    Some(ms) if ms > 0 => Some(ms as u64),
                    _ => {
                        return Err(CodecError(
                            "\"deadline_ms\" must be a positive integer".into(),
                        ))
                    }
                },
            };
            Ok(Request::Submit(Box::new(SubmitReq {
                spec,
                device,
                opts,
                deadline_ms,
            })))
        }
        other => Err(CodecError(format!("unknown op {other:?}"))),
    }
}

/// Builds a success response skeleton.
pub fn ok_response() -> Json {
    Json::obj().with("ok", true)
}

/// Builds an error response.
pub fn error_response(msg: &str) -> Json {
    Json::obj().with("ok", false).with("error", msg)
}

/// Builds the queue-full rejection (explicit, never a hang).
pub fn rejected_response() -> Json {
    error_response("queue full").with("rejected", true)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P4F: &str = r#"
        header h_t { v : 4; }
        parser {
            state start {
                extract(h_t);
                transition select(h_t.v) { 7 : accept; default : reject; }
            }
        }
    "#;

    #[test]
    fn parses_simple_ops() {
        assert!(matches!(
            parse_request(r#"{"op":"ping"}"#),
            Ok(Request::Ping)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"stats"}"#),
            Ok(Request::Stats)
        ));
        assert!(matches!(
            parse_request(r#"{"op":"shutdown"}"#),
            Ok(Request::Shutdown)
        ));
    }

    #[test]
    fn parses_p4f_submit_with_defaults() {
        let line = Json::obj()
            .with("op", "submit")
            .with("p4f", P4F)
            .to_string();
        let Ok(Request::Submit(req)) = parse_request(&line) else {
            panic!("submit did not parse");
        };
        assert_eq!(req.device.name, "tofino");
        assert_eq!(req.deadline_ms, None);
        assert_eq!(req.opts, OptConfig::all());
        assert_eq!(req.spec.states.len(), 1);
    }

    #[test]
    fn parses_structured_submit() {
        let spec = ph_p4f::parse_parser(P4F).unwrap();
        let line = Json::obj()
            .with("op", "submit")
            .with("spec", codec::spec_to_json(&spec))
            .with("device", "trident")
            .with("deadline_ms", 1500_i64)
            .with("wait", true)
            .with("opts", Json::obj().with("opt7_parallel", false))
            .to_string();
        let Ok(Request::Submit(req)) = parse_request(&line) else {
            panic!("submit did not parse");
        };
        assert_eq!(req.device.name, "trident");
        assert_eq!(req.deadline_ms, Some(1500));
        assert!(!req.opts.opt7_parallel);
        assert!(req.opts.opt1_spec_keys);
        assert_eq!(req.spec, spec);
    }

    #[test]
    fn rejects_malformed_requests() {
        for line in [
            "",
            "not json",
            "{}",
            r#"{"op":"warp"}"#,
            r#"{"op":"status"}"#,
            r#"{"op":"status","job":1}"#,
            r#"{"op":"result","job":1}"#,
            r#"{"op":"cancel","job":1}"#,
            r#"{"op":"submit"}"#,
            r#"{"op":"submit","p4f":"parser {"}"#,
            r#"{"op":"submit","p4f":"x","spec":{}}"#,
            r#"{"op":"submit","device":"cisco"}"#,
        ] {
            assert!(parse_request(line).is_err(), "accepted {line:?}");
        }
        // The job-id mode is gone: only `"wait": true` (or no `wait`) is
        // accepted, on an otherwise valid submit.
        for wait in [
            Json::Bool(false),
            Json::Null,
            Json::from(1_i64),
            Json::from("true"),
        ] {
            let line = Json::obj()
                .with("op", "submit")
                .with("p4f", P4F)
                .with("wait", wait)
                .to_string();
            assert!(parse_request(&line).is_err(), "accepted {line:?}");
        }
    }

    #[test]
    fn invalid_specs_are_rejected_at_parse_time() {
        // Structurally well-formed JSON, semantically broken spec
        // (transition to an unknown state).
        let line = r#"{"op":"submit","spec":{"fields":[],"states":[
            {"name":"s","extracts":[],"key":[],"transitions":[],"default":7}
        ],"start":0}}"#
            .replace('\n', " ");
        assert!(parse_request(&line).is_err());
    }

    #[test]
    fn opts_round_trip() {
        let mut o = OptConfig::all();
        o.opt5_grouping = false;
        o.opt7_parallel = false;
        let back = opts_from_json(&opts_to_json(o)).unwrap();
        assert_eq!(back, o);
    }

    #[test]
    fn response_builders() {
        assert_eq!(ok_response().get("ok"), Some(&Json::Bool(true)));
        let r = rejected_response();
        assert_eq!(r.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(r.get("rejected"), Some(&Json::Bool(true)));
    }
}
