//! The span profiler: the one fold of a trace's events into a span-tree
//! profile.
//!
//! Events arrive typed ([`Profiler::feed`], from [`crate::SummarySink`]
//! while the run goes) or as `PH_TRACE` JSON lines ([`Profiler::feed_line`],
//! from a trace file, in O(open spans) memory).  The output ([`Profile`])
//! answers the questions the raw stream cannot:
//!
//! * **Per-name cost** — call counts, *total* time (span open) vs *self*
//!   time (total minus instrumented children), and a duration
//!   [`Histogram`] (p50/p90/p99) per span name.
//! * **Per-path cost** — the same keyed by the full ancestor path, which
//!   serializes directly to inferno/flamegraph.pl-compatible folded
//!   stacks ([`Profile::folded`]).
//! * **Child coverage** — the share of a span's time that its
//!   instrumented children explain ([`Profile::child_coverage_pct`]), the
//!   measure `trace_prof --min-coverage` gates per span name.
//!
//! Malformed input never panics: truncated or non-JSON lines, unbalanced
//! spans, exits without enters, non-monotone timestamps, unknown event
//! kinds and events missing their fields are reported as
//! [`Profile::warnings`] and the rest of the stream still profiles — a
//! profiler that dies on the trace of a crashed run is useless exactly
//! when it is needed most.  A trace validates when it profiles without a
//! warning.

use crate::hist::Histogram;
use crate::json::Json;
use crate::{Event, EventKind};
use std::collections::{BTreeMap, HashMap};

/// At most this many distinct warnings are stored verbatim
/// ([`Profile::warning_count`] keeps the true total).
pub const WARNING_CAP: usize = 20;

/// Aggregate cost of one span name.
#[derive(Clone, Debug, Default)]
pub struct NameStat {
    /// Completed invocations.
    pub calls: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus instrumented child time.
    pub self_ns: u64,
    /// Distribution of the individual durations.
    pub dur: Histogram,
}

/// Aggregate cost of one ancestor path (`a;b;c`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PathStat {
    /// Completed invocations of the leaf at this path.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus instrumented child time.
    pub self_ns: u64,
}

/// An open span while streaming.
struct Frame {
    name: String,
    parent: Option<u64>,
    /// `a;b;c` ancestor path, branch-rooted when the enter was tagged.
    path: String,
    /// Sum of completed direct children's durations.
    child_ns: u64,
}

/// The finished profile (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Trace lines consumed (including malformed ones); 0 for a typed
    /// event stream.
    pub lines: u64,
    /// Well-formed events folded.
    pub events: u64,
    /// Per span name aggregates.
    pub spans: BTreeMap<String, NameStat>,
    /// Per ancestor-path aggregates (folded-stack source).
    pub paths: BTreeMap<String, PathStat>,
    /// Explicit [`crate::Tracer::record`] series.
    pub records: BTreeMap<String, Histogram>,
    /// Counter totals.
    pub counters: BTreeMap<String, u64>,
    /// Last gauge values.
    pub gauges: BTreeMap<String, u64>,
    /// First [`WARNING_CAP`] problems found in the stream.
    pub warnings: Vec<String>,
    /// Total problems found (may exceed `warnings.len()`).
    pub warning_count: u64,
}

impl Profile {
    /// Counts a problem, keeping its text while fewer than [`WARNING_CAP`]
    /// are stored.
    fn warn(&mut self, msg: String) {
        self.warning_count += 1;
        if self.warnings.len() < WARNING_CAP {
            self.warnings.push(msg);
        }
    }

    /// Inferno-compatible folded stacks: one `path self_ns` line per
    /// ancestor path with nonzero self time, sorted by path.  Feed to
    /// `inferno-flamegraph` (or flamegraph.pl) for an SVG flamegraph;
    /// the "sample" unit is nanoseconds of self time.
    pub fn folded(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (path, st) in &self.paths {
            if st.self_ns > 0 {
                let _ = writeln!(out, "{} {}", path, st.self_ns);
            }
        }
        out
    }

    /// Share of span `name`'s total time spent in its instrumented
    /// children — `100 * (total - self) / total` — or `None` when the
    /// trace holds no completed `name` span.
    pub fn child_coverage_pct(&self, name: &str) -> Option<f64> {
        let st = self.spans.get(name).filter(|st| st.calls > 0)?;
        if st.total_ns == 0 {
            return Some(100.0);
        }
        Some(100.0 * (st.total_ns - st.self_ns) as f64 / st.total_ns as f64)
    }

    /// A human-readable report: the top `n` spans by self time, then
    /// counters, gauges and record distributions.
    pub fn render(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "trace profile: {} events", self.events);
        if self.lines > 0 {
            let _ = write!(out, " on {} lines", self.lines);
        }
        let _ = writeln!(
            out,
            ", {} span names, {} warnings",
            self.spans.len(),
            self.warning_count
        );
        for w in &self.warnings {
            let _ = writeln!(out, "  warning: {w}");
        }
        let _ = writeln!(
            out,
            "\n{:<26} {:>7} {:>12} {:>12} {:>6} {:>10} {:>10}",
            "span", "calls", "total(ms)", "self(ms)", "self%", "p50(us)", "p99(us)"
        );
        let mut by_self: Vec<(&String, &NameStat)> = self.spans.iter().collect();
        by_self.sort_by_key(|(_, st)| std::cmp::Reverse(st.self_ns));
        let grand_self: u64 = self.spans.values().map(|s| s.self_ns).sum();
        for (name, st) in by_self.into_iter().take(n) {
            let _ = writeln!(
                out,
                "{:<26} {:>7} {:>12.3} {:>12.3} {:>5.1}% {:>10.1} {:>10.1}",
                name,
                st.calls,
                st.total_ns as f64 / 1e6,
                st.self_ns as f64 / 1e6,
                100.0 * st.self_ns as f64 / grand_self.max(1) as f64,
                st.dur.p50() as f64 / 1e3,
                st.dur.p99() as f64 / 1e3,
            );
        }
        for (title, values) in [("counters", &self.counters), ("gauges", &self.gauges)] {
            if !values.is_empty() {
                let _ = writeln!(out, "\n{title}:");
                for (name, v) in values {
                    let _ = writeln!(out, "  {name:<30} {v}");
                }
            }
        }
        if !self.records.is_empty() {
            let _ = writeln!(out, "\nrecords:");
            for (name, h) in &self.records {
                let _ = writeln!(
                    out,
                    "  {name:<30} x{:<7} p50 {} p90 {} p99 {}",
                    h.count(),
                    h.p50(),
                    h.p90(),
                    h.p99()
                );
            }
        }
        out
    }
}

/// Streaming profile builder: [`Profiler::feed`] each event (or
/// [`Profiler::feed_line`] each trace line), then [`Profiler::finish`].
#[derive(Default)]
pub struct Profiler {
    out: Profile,
    open: HashMap<u64, Frame>,
    last_t: i64,
    /// Set once per unknown event kind so a foreign trace doesn't drown
    /// the warning list.
    unknown_kinds: Vec<String>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Profiler {
        Profiler::default()
    }

    /// Records a problem, prefixed with where it was found: the trace line
    /// when fed lines, else the event's ordinal.
    fn warn(&mut self, msg: String) {
        let at = match self.out.lines {
            0 => format!("event {}", self.out.events + 1),
            n => format!("line {n}"),
        };
        self.out.warn(format!("{at}: {msg}"));
    }

    /// Folds one typed event.
    pub fn feed(&mut self, ev: &Event<'_>) {
        match ev.kind {
            EventKind::SpanEnter { name, id, parent } => self.on_enter(name, id, parent, ev.branch),
            EventKind::SpanExit { name, id, dur_ns } => self.on_exit(name, id, dur_ns),
            EventKind::Counter { name, delta } => {
                *self.out.counters.entry(name.to_string()).or_insert(0) += delta;
            }
            EventKind::Gauge { name, value } => {
                self.out.gauges.insert(name.to_string(), value);
            }
            EventKind::Record { name, value } => {
                self.out
                    .records
                    .entry(name.to_string())
                    .or_default()
                    .record(value);
            }
            EventKind::Message { .. } => {}
        }
        self.out.events += 1;
    }

    /// Consumes one JSONL trace line: parses it, checks that its `t_ns`
    /// stamp does not go backwards, and [feeds](Profiler::feed) the event.
    /// Malformed lines are recorded as warnings, never panics.
    pub fn feed_line(&mut self, line: &str) {
        self.out.lines += 1;
        if line.trim().is_empty() {
            return;
        }
        let ev = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => return self.warn(format!("not valid JSON ({e})")),
        };
        match ev.get("t_ns").and_then(Json::as_i64) {
            Some(t) if t < self.last_t => self.warn(format!(
                "t_ns {t} goes backwards (previous {})",
                self.last_t
            )),
            Some(t) => self.last_t = t,
            None => self.warn("missing t_ns".into()),
        }
        let str_of = |key| ev.get(key).and_then(Json::as_str);
        let u64_of = |key| ev.get(key).and_then(Json::as_i64).map(|v| v.max(0) as u64);
        let Some(ev_kind) = str_of("ev") else {
            return self.warn("missing ev kind".into());
        };
        let (name, span, id, value) = (
            str_of("name"),
            str_of("span"),
            u64_of("id"),
            u64_of("value"),
        );
        let (kind, fields) = match ev_kind {
            "enter" => (
                span.zip(id).map(|(name, id)| EventKind::SpanEnter {
                    name,
                    id,
                    parent: u64_of("parent"),
                }),
                "span/id",
            ),
            "exit" => (
                span.zip(id)
                    .zip(u64_of("dur_ns"))
                    .map(|((name, id), dur_ns)| EventKind::SpanExit { name, id, dur_ns }),
                "span/id/dur_ns",
            ),
            "count" => (
                name.zip(u64_of("delta"))
                    .map(|(name, delta)| EventKind::Counter { name, delta }),
                "name/delta",
            ),
            "gauge" => (
                name.zip(value)
                    .map(|(name, value)| EventKind::Gauge { name, value }),
                "name/value",
            ),
            "record" => (
                name.zip(value)
                    .map(|(name, value)| EventKind::Record { name, value }),
                "name/value",
            ),
            "msg" => (
                str_of("level")
                    .and_then(|l| l.parse().ok())
                    .zip(str_of("text"))
                    .map(|(level, text)| EventKind::Message { level, text }),
                "level/text",
            ),
            other => {
                if !self.unknown_kinds.iter().any(|k| k == other) {
                    self.unknown_kinds.push(other.to_string());
                    self.warn(format!("unknown event kind {other:?}"));
                }
                return;
            }
        };
        match kind {
            Some(kind) => self.feed(&Event {
                branch: str_of("branch"),
                kind,
            }),
            None => self.warn(format!("{ev_kind} without {fields}")),
        }
    }

    fn on_enter(&mut self, name: &str, id: u64, parent: Option<u64>, branch: Option<&str>) {
        let path = match (parent.and_then(|p| self.open.get(&p)), branch) {
            (Some(pf), _) => format!("{};{}", pf.path, name),
            (None, Some(b)) => format!("branch:{b};{name}"),
            (None, None) => name.to_string(),
        };
        if parent.is_some() && parent.and_then(|p| self.open.get(&p)).is_none() {
            // Parent id present but never seen entering: the trace head
            // was truncated or the parent line was malformed.
            self.warn(format!(
                "span {name:?} (id {id}) has unknown parent {parent:?}"
            ));
        }
        let frame = Frame {
            name: name.to_string(),
            parent,
            path,
            child_ns: 0,
        };
        if self.open.insert(id, frame).is_some() {
            self.warn(format!("span id {id} entered twice"));
        }
    }

    fn on_exit(&mut self, name: &str, id: u64, dur: u64) {
        let Some(frame) = self.open.remove(&id) else {
            return self.warn(format!("exit of {name:?} (id {id}) was never entered"));
        };
        if frame.name != name {
            self.warn(format!(
                "exit of {name:?} closes span entered as {:?}",
                frame.name
            ));
        }
        let self_ns = dur.saturating_sub(frame.child_ns);
        // Credit the parent with this child's time.
        if let Some(pf) = frame.parent.and_then(|p| self.open.get_mut(&p)) {
            pf.child_ns += dur;
        }
        let ns = self.out.spans.entry(frame.name).or_default();
        ns.calls += 1;
        ns.total_ns += dur;
        ns.self_ns += self_ns;
        ns.dur.record(dur);
        let ps = self.out.paths.entry(frame.path).or_default();
        ps.calls += 1;
        ps.total_ns += dur;
        ps.self_ns += self_ns;
    }

    /// The profile so far, with still-open spans reported as a warning
    /// (their time is not counted).
    pub fn finish(&self) -> Profile {
        let mut out = self.out.clone();
        if !self.open.is_empty() {
            let mut names: Vec<&str> = self.open.values().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            out.warn(format!(
                "{} spans never exited (their time is not counted): {names:?}",
                names.len()
            ));
        }
        out
    }
}

/// Profiles a whole reader (convenience wrapper around the streaming
/// API).
///
/// # Errors
///
/// Propagates I/O failures from the reader; malformed *content* is
/// reported via [`Profile::warnings`] instead.
pub fn profile_reader<R: std::io::BufRead>(reader: R) -> std::io::Result<Profile> {
    let mut p = Profiler::new();
    for line in reader.lines() {
        p.feed_line(&line?);
    }
    Ok(p.finish())
}

/// Profiles an in-memory trace.
pub fn profile_str(text: &str) -> Profile {
    let mut p = Profiler::new();
    for line in text.lines() {
        p.feed_line(line);
    }
    p.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written golden trace:
    ///
    /// ```text
    /// a (id 1)  [0 .. 1000]          dur 1000
    ///   b (id 2)  [100 .. 400]       dur  300
    ///   b (id 3)  [500 .. 900]       dur  400
    ///     c (id 4) [600 .. 700]      dur  100
    /// ```
    fn golden() -> String {
        [
            r#"{"t_ns":0,"ev":"enter","span":"a","id":1}"#,
            r#"{"t_ns":100,"ev":"enter","span":"b","id":2,"parent":1}"#,
            r#"{"t_ns":400,"ev":"exit","span":"b","id":2,"parent":1,"dur_ns":300}"#,
            r#"{"t_ns":450,"ev":"count","name":"widgets","delta":5}"#,
            r#"{"t_ns":460,"ev":"record","name":"conflicts","value":17}"#,
            r#"{"t_ns":500,"ev":"enter","span":"b","id":3,"parent":1}"#,
            r#"{"t_ns":600,"ev":"enter","span":"c","id":4,"parent":3}"#,
            r#"{"t_ns":700,"ev":"exit","span":"c","id":4,"parent":3,"dur_ns":100}"#,
            r#"{"t_ns":900,"ev":"exit","span":"b","id":3,"parent":1,"dur_ns":400}"#,
            r#"{"t_ns":1000,"ev":"exit","span":"a","id":1,"dur_ns":1000}"#,
        ]
        .join("\n")
    }

    #[test]
    fn golden_trace_exact_self_and_total_times() {
        let p = profile_str(&golden());
        assert_eq!(p.warning_count, 0, "{:?}", p.warnings);
        assert_eq!(p.lines, 10);
        assert_eq!(p.events, 10);

        let a = &p.spans["a"];
        assert_eq!((a.calls, a.total_ns, a.self_ns), (1, 1000, 300));
        let b = &p.spans["b"];
        assert_eq!((b.calls, b.total_ns, b.self_ns), (2, 700, 600));
        let c = &p.spans["c"];
        assert_eq!((c.calls, c.total_ns, c.self_ns), (1, 100, 100));
        // Span-duration distributions come along for free.
        assert_eq!(b.dur.min(), 300);
        assert_eq!(b.dur.max(), 400);

        // Path view separates the two `b` call sites by... no, same path:
        // both b's sit under a, so one path row with 2 calls.
        let pb = &p.paths["a;b"];
        assert_eq!((pb.calls, pb.total_ns, pb.self_ns), (2, 700, 600));
        assert_eq!(p.paths["a;b;c"].self_ns, 100);

        assert_eq!(p.counters["widgets"], 5);
        assert_eq!(p.records["conflicts"].count(), 1);
        assert_eq!(p.records["conflicts"].max(), 17);
    }

    #[test]
    fn child_coverage_is_the_share_outside_self_time() {
        let p = profile_str(&golden());
        assert_eq!(p.child_coverage_pct("a"), Some(70.0));
        assert_eq!(p.child_coverage_pct("b"), Some(100.0 * 100.0 / 700.0));
        assert_eq!(p.child_coverage_pct("c"), Some(0.0));
        assert_eq!(p.child_coverage_pct("svc.op.submit"), None);
    }

    #[test]
    fn golden_trace_folded_stacks() {
        let p = profile_str(&golden());
        assert_eq!(p.folded(), "a 300\na;b 600\na;b;c 100\n");
    }

    #[test]
    fn branch_tag_roots_the_folded_path() {
        let trace = [
            r#"{"t_ns":0,"ev":"enter","span":"synth.run","id":1,"branch":"opt7"}"#,
            r#"{"t_ns":10,"ev":"enter","span":"smt.check","id":2,"parent":1,"branch":"opt7"}"#,
            r#"{"t_ns":60,"ev":"exit","span":"smt.check","id":2,"parent":1,"dur_ns":50,"branch":"opt7"}"#,
            r#"{"t_ns":100,"ev":"exit","span":"synth.run","id":1,"dur_ns":100,"branch":"opt7"}"#,
        ]
        .join("\n");
        let p = profile_str(&trace);
        assert_eq!(p.warning_count, 0, "{:?}", p.warnings);
        assert_eq!(
            p.folded(),
            "branch:opt7;synth.run 50\nbranch:opt7;synth.run;smt.check 50\n"
        );
    }

    #[test]
    fn cegis_coverage_is_per_span() {
        let trace = [
            r#"{"t_ns":0,"ev":"enter","span":"cegis.run","id":1}"#,
            r#"{"t_ns":1,"ev":"enter","span":"cegis.assume","id":2,"parent":1}"#,
            r#"{"t_ns":3,"ev":"exit","span":"cegis.assume","id":2,"dur_ns":2}"#,
            // iter 1: synth 50 (30 of it SAT search), verify 40
            r#"{"t_ns":10,"ev":"enter","span":"cegis.iter","id":3,"parent":1}"#,
            r#"{"t_ns":11,"ev":"enter","span":"cegis.synth","id":4,"parent":3}"#,
            r#"{"t_ns":20,"ev":"enter","span":"smt.check","id":5,"parent":4}"#,
            r#"{"t_ns":21,"ev":"enter","span":"sat.solve","id":6,"parent":5}"#,
            r#"{"t_ns":51,"ev":"exit","span":"sat.solve","id":6,"dur_ns":30}"#,
            r#"{"t_ns":55,"ev":"exit","span":"smt.check","id":5,"dur_ns":35}"#,
            r#"{"t_ns":61,"ev":"exit","span":"cegis.synth","id":4,"dur_ns":50}"#,
            r#"{"t_ns":62,"ev":"enter","span":"cegis.verify","id":7,"parent":3}"#,
            r#"{"t_ns":102,"ev":"exit","span":"cegis.verify","id":7,"dur_ns":40}"#,
            r#"{"t_ns":105,"ev":"exit","span":"cegis.iter","id":3,"dur_ns":95}"#,
            // iter 2: synth 20, no verify (interrupted, say)
            r#"{"t_ns":110,"ev":"enter","span":"cegis.iter","id":8,"parent":1}"#,
            r#"{"t_ns":111,"ev":"enter","span":"cegis.synth","id":9,"parent":8}"#,
            r#"{"t_ns":131,"ev":"exit","span":"cegis.synth","id":9,"dur_ns":20}"#,
            r#"{"t_ns":135,"ev":"exit","span":"cegis.iter","id":8,"dur_ns":25}"#,
            // shrink at run level
            r#"{"t_ns":140,"ev":"enter","span":"cegis.shrink","id":10,"parent":1}"#,
            r#"{"t_ns":170,"ev":"exit","span":"cegis.shrink","id":10,"dur_ns":30}"#,
            r#"{"t_ns":180,"ev":"exit","span":"cegis.run","id":1,"dur_ns":180}"#,
        ]
        .join("\n");
        let p = profile_str(&trace);
        assert_eq!(p.warning_count, 0, "{:?}", p.warnings);
        let (run, iter) = (&p.spans["cegis.run"], &p.spans["cegis.iter"]);
        assert_eq!((run.calls, run.total_ns, run.self_ns), (1, 180, 28));
        assert_eq!((iter.calls, iter.total_ns, iter.self_ns), (2, 120, 10));
        // What a synth/verify/shrink/assume phase split cannot attribute
        // is exactly the two spans' self time.
        assert_eq!(run.self_ns + iter.self_ns, 180 - (70 + 40 + 30 + 2));
        let cov = |name| p.child_coverage_pct(name).unwrap();
        assert!((cov("cegis.run") - 100.0 * 152.0 / 180.0).abs() < 1e-9);
        assert!((cov("cegis.iter") - 100.0 * 110.0 / 120.0).abs() < 1e-9);
        assert_eq!(p.spans["sat.solve"].total_ns, 30);
    }

    #[test]
    fn malformed_corpus_warns_instead_of_panicking() {
        // Truncated line, unbalanced span, non-monotone t_ns, exit
        // without enter, enter-twice, missing fields — all in one trace.
        let trace = [
            r#"{"t_ns":0,"ev":"enter","span":"a","id":1}"#,
            r#"{"t_ns":50,"ev":"enter","span":"trunc","#, // truncated mid-line
            r#"{"t_ns":55,"ev":"count","name":"fwd","delta":1}"#, // advances the clock
            r#"{"t_ns":40,"ev":"count","name":"back","delta":1}"#, // t_ns goes backwards
            r#"{"t_ns":60,"ev":"exit","span":"ghost","id":99,"dur_ns":5}"#, // never entered
            r#"{"t_ns":70,"ev":"enter","span":"dup","id":1}"#, // id reused while open
            r#"{"t_ns":80,"ev":"wat","name":"x"}"#,       // unknown kind
            r#"{"t_ns":90,"ev":"enter"}"#,                // missing id/span
            r#"{"t_ns":95,"ev":"msg","level":"info"}"#,   // missing text
                                                          // `a`/`dup` (id 1) never exits -> unbalanced at EOF
        ]
        .join("\n");
        let p = profile_str(&trace);
        assert!(p.warning_count >= 6, "{:?}", p.warnings);
        let all = p.warnings.join("\n");
        for needle in [
            "not valid JSON",
            "goes backwards",
            "never entered",
            "entered twice",
            "unknown event kind",
            "enter without span/id",
            "msg without level/text",
            "never exited",
        ] {
            assert!(all.contains(needle), "missing {needle:?} in:\n{all}");
        }
        // Nothing completed, so no span aggregates; and render() holds up.
        assert!(p.spans.is_empty());
        let text = p.render(10);
        assert!(text.contains("warning:"), "{text}");
    }
}
