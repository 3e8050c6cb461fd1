//! Streaming trace profiler: folds a `PH_TRACE` JSON-lines stream into a
//! span-tree profile.
//!
//! The trace is consumed one line at a time ([`Profiler::feed_line`]), so
//! multi-hundred-MB traces profile in O(open spans) memory.  The output
//! ([`Profile`]) answers the questions the raw stream cannot:
//!
//! * **Per-name cost** — call counts, *total* time (span open) vs *self*
//!   time (total minus instrumented children), and a duration
//!   [`Histogram`] (p50/p90/p99) per span name.
//! * **Per-path cost** — the same keyed by the full ancestor path, which
//!   serializes directly to inferno/flamegraph.pl-compatible folded
//!   stacks ([`Profile::folded`]).
//! * **CEGIS breakdown** — how each iteration's wall time splits across
//!   synth / verify / shrink, with nested CNF-simplification time
//!   attributed to its enclosing iteration
//!   ([`CegisProfile`]); the instrumentation in `ph-core` is arranged so
//!   those three phases cover the `cegis.run` total to within ~1%.
//!
//! Malformed input never panics: truncated or non-JSON lines, unbalanced
//! spans, exits without enters, and non-monotone timestamps are reported
//! as [`Profile::warnings`] and the rest of the stream still profiles —
//! a profiler that dies on the trace of a crashed run is useless exactly
//! when it is needed most.

use crate::hist::Histogram;
use crate::json::Json;
use std::collections::{BTreeMap, HashMap};

/// How many per-iteration breakdown rows [`CegisProfile::per_iter`]
/// keeps; later iterations still aggregate into the totals.
pub const PER_ITER_CAP: usize = 512;

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
#[derive(Clone, Debug, Default)]
pub struct PathStat {
    /// Completed invocations of the leaf at this path.
    pub calls: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus instrumented child time.
    pub self_ns: u64,
}

/// One CEGIS iteration's phase split (a `cegis.iter` span).
#[derive(Clone, Copy, Debug, Default)]
pub struct IterRow {
    /// The iteration's wall time.
    pub total_ns: u64,
    /// Synthesis phase (`cegis.synth`: assumption check + model
    /// extraction, including nested solver work).
    pub synth_ns: u64,
    /// Verification phase (`cegis.verify`: incremental check + test-case
    /// encoding on counterexample).
    pub verify_ns: u64,
    /// CNF simplification inside this iteration (`sat.simplify`).
    pub simplify_ns: u64,
}

/// The synth/verify/shrink critical-path breakdown of the `cegis.run`
/// spans (summed across runs and race branches).
#[derive(Clone, Debug, Default)]
pub struct CegisProfile {
    /// Completed `cegis.run` spans (one per synthesis run per branch).
    pub runs: u64,
    /// Completed `cegis.iter` spans.
    pub iters: u64,
    /// Total time inside `cegis.run`.
    pub total_ns: u64,
    /// Total `cegis.synth` time.
    pub synth_ns: u64,
    /// Total `cegis.verify` time.
    pub verify_ns: u64,
    /// Total `cegis.shrink` time.
    pub shrink_ns: u64,
    /// Total `cegis.assume` (budget-level assumption building) time.
    pub assume_ns: u64,
    /// Total `sat.simplify` time under `cegis.run`.
    pub simplify_ns: u64,
    /// `total_ns` minus everything instrumented above (loop control,
    /// span bookkeeping): what the profile *cannot* attribute.
    pub other_ns: u64,
    /// First [`PER_ITER_CAP`] iterations' phase splits.
    pub per_iter: Vec<IterRow>,
    /// Whether iterations beyond the cap were dropped from `per_iter`.
    pub per_iter_capped: bool,
}

impl CegisProfile {
    /// Share of `cegis.run` time attributed to the three phases —
    /// `100 * (synth + verify + shrink) / total` (100 when no CEGIS span
    /// appears in the trace).
    pub fn coverage_pct(&self) -> f64 {
        if self.total_ns == 0 {
            return 100.0;
        }
        100.0 * (self.synth_ns + self.verify_ns + self.shrink_ns) as f64 / self.total_ns as f64
    }
}

/// An open span while streaming.
struct Frame {
    name: String,
    parent: Option<u64>,
    /// `a;b;c` ancestor path, branch-rooted when the enter was tagged.
    path: String,
    /// Sum of completed direct children's durations.
    child_ns: u64,
    /// Phase accumulator, allocated for `cegis.iter` frames only.
    iter: Option<Box<IterRow>>,
}

/// The finished profile (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Lines consumed (including malformed ones).
    pub lines: u64,
    /// Events successfully parsed.
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
    /// CEGIS phase breakdown.
    pub cegis: CegisProfile,
    /// First [`WARNING_CAP`] problems found in the stream.
    pub warnings: Vec<String>,
    /// Total problems found (may exceed `warnings.len()`).
    pub warning_count: u64,
}

impl Profile {
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

    /// A human-readable top-`n` report (by self time), with the CEGIS
    /// breakdown and counters appended.
    pub fn render(&self, n: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace profile: {} events on {} lines, {} span names, {} warnings",
            self.events,
            self.lines,
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
        let c = &self.cegis;
        if c.runs > 0 {
            let pct = |ns: u64| 100.0 * ns as f64 / c.total_ns.max(1) as f64;
            let _ = writeln!(
                out,
                "\ncegis: {} runs, {} iterations, {:.3} ms total",
                c.runs,
                c.iters,
                c.total_ns as f64 / 1e6
            );
            let _ = writeln!(
                out,
                "  synth {:>9.3} ms ({:>4.1}%)   verify {:>9.3} ms ({:>4.1}%)   shrink {:>9.3} ms ({:>4.1}%)",
                c.synth_ns as f64 / 1e6,
                pct(c.synth_ns),
                c.verify_ns as f64 / 1e6,
                pct(c.verify_ns),
                c.shrink_ns as f64 / 1e6,
                pct(c.shrink_ns),
            );
            let _ = writeln!(
                out,
                "  nested: simplify {:.3} ms; unattributed {:.3} ms; phase coverage {:.2}%",
                c.simplify_ns as f64 / 1e6,
                c.other_ns as f64 / 1e6,
                c.coverage_pct(),
            );
        }
        if !self.counters.is_empty() {
            let _ = writeln!(out, "\ncounters:");
            for (name, v) in &self.counters {
                let _ = writeln!(out, "  {name:<30} {v}");
            }
        }
        out
    }

    /// The profile as a JSON object (merged into the `results/profile.json`
    /// document by `trace_prof`; `check_schema` validates the shape).
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|(name, st)| {
                Json::obj()
                    .with("name", name.as_str())
                    .with("calls", st.calls)
                    .with("total_ns", st.total_ns)
                    .with("self_ns", st.self_ns)
                    .with("dur", st.dur.summary_json())
            })
            .collect();
        let records = self
            .records
            .iter()
            .map(|(name, h)| {
                Json::obj()
                    .with("name", name.as_str())
                    .with("hist", h.summary_json())
            })
            .collect();
        let obj_of = |m: &BTreeMap<String, u64>| {
            let mut o = Json::obj();
            for (k, v) in m {
                o.set(k, *v);
            }
            o
        };
        let c = &self.cegis;
        let per_iter = c
            .per_iter
            .iter()
            .map(|r| {
                Json::obj()
                    .with("total_ns", r.total_ns)
                    .with("synth_ns", r.synth_ns)
                    .with("verify_ns", r.verify_ns)
                    .with("simplify_ns", r.simplify_ns)
            })
            .collect();
        Json::obj()
            .with("lines", self.lines)
            .with("events", self.events)
            .with("warning_count", self.warning_count)
            .with(
                "warnings",
                Json::Arr(
                    self.warnings
                        .iter()
                        .map(|w| Json::from(w.as_str()))
                        .collect(),
                ),
            )
            .with("spans", Json::Arr(spans))
            .with("records", Json::Arr(records))
            .with("counters", obj_of(&self.counters))
            .with("gauges", obj_of(&self.gauges))
            .with(
                "cegis",
                Json::obj()
                    .with("runs", c.runs)
                    .with("iters", c.iters)
                    .with("total_ns", c.total_ns)
                    .with("synth_ns", c.synth_ns)
                    .with("verify_ns", c.verify_ns)
                    .with("shrink_ns", c.shrink_ns)
                    .with("assume_ns", c.assume_ns)
                    .with("simplify_ns", c.simplify_ns)
                    .with("other_ns", c.other_ns)
                    .with("coverage_pct", c.coverage_pct())
                    .with("per_iter", Json::Arr(per_iter))
                    .with("per_iter_capped", c.per_iter_capped),
            )
    }
}

/// Streaming profile builder: [`Profiler::feed_line`] each trace line,
/// then [`Profiler::finish`].
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

    fn warn(&mut self, msg: String) {
        self.out.warning_count += 1;
        if self.out.warnings.len() < WARNING_CAP {
            self.out.warnings.push(msg);
        }
    }

    /// Consumes one trace line.  Malformed lines are recorded as
    /// warnings, never panics.
    pub fn feed_line(&mut self, line: &str) {
        self.out.lines += 1;
        let lineno = self.out.lines;
        if line.trim().is_empty() {
            return;
        }
        let ev = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                self.warn(format!("line {lineno}: not valid JSON ({e})"));
                return;
            }
        };
        self.out.events += 1;
        match ev.get("t_ns").and_then(Json::as_i64) {
            Some(t) => {
                if t < self.last_t {
                    self.warn(format!(
                        "line {lineno}: t_ns {t} goes backwards (previous {})",
                        self.last_t
                    ));
                } else {
                    self.last_t = t;
                }
            }
            None => self.warn(format!("line {lineno}: missing t_ns")),
        }
        let Some(kind) = ev.get("ev").and_then(Json::as_str) else {
            self.warn(format!("line {lineno}: missing ev kind"));
            return;
        };
        match kind {
            "enter" => self.on_enter(&ev, lineno),
            "exit" => self.on_exit(&ev, lineno),
            "count" => {
                if let (Some(name), Some(delta)) = (
                    ev.get("name").and_then(Json::as_str),
                    ev.get("delta").and_then(Json::as_i64),
                ) {
                    *self.out.counters.entry(name.to_string()).or_insert(0) += delta.max(0) as u64;
                } else {
                    self.warn(format!("line {lineno}: count without name/delta"));
                }
            }
            "gauge" => {
                if let (Some(name), Some(value)) = (
                    ev.get("name").and_then(Json::as_str),
                    ev.get("value").and_then(Json::as_i64),
                ) {
                    self.out
                        .gauges
                        .insert(name.to_string(), value.max(0) as u64);
                } else {
                    self.warn(format!("line {lineno}: gauge without name/value"));
                }
            }
            "record" => {
                if let (Some(name), Some(value)) = (
                    ev.get("name").and_then(Json::as_str),
                    ev.get("value").and_then(Json::as_i64),
                ) {
                    self.out
                        .records
                        .entry(name.to_string())
                        .or_default()
                        .record(value.max(0) as u64);
                } else {
                    self.warn(format!("line {lineno}: record without name/value"));
                }
            }
            // Flush-time summaries are derived data; the profiler
            // recomputes distributions from the raw events.
            "msg" | "hist" => {}
            other => {
                if !self.unknown_kinds.iter().any(|k| k == other) {
                    self.unknown_kinds.push(other.to_string());
                    self.warn(format!("line {lineno}: unknown event kind {other:?}"));
                }
            }
        }
    }

    fn on_enter(&mut self, ev: &Json, lineno: u64) {
        let (Some(id), Some(name)) = (
            ev.get("id").and_then(Json::as_i64),
            ev.get("span").and_then(Json::as_str),
        ) else {
            self.warn(format!("line {lineno}: enter without id/span"));
            return;
        };
        let id = id as u64;
        let parent = ev.get("parent").and_then(Json::as_i64).map(|p| p as u64);
        let path = match parent.and_then(|p| self.open.get(&p)) {
            Some(pf) => format!("{};{}", pf.path, name),
            None => match ev.get("branch").and_then(Json::as_str) {
                Some(b) => format!("branch:{b};{name}"),
                None => name.to_string(),
            },
        };
        if parent.is_some() && parent.and_then(|p| self.open.get(&p)).is_none() {
            // Parent id present but never seen entering: the trace head
            // was truncated or the parent line was malformed.
            self.warn(format!(
                "line {lineno}: span {name:?} (id {id}) has unknown parent {parent:?}"
            ));
        }
        let iter = (name == "cegis.iter").then(|| Box::new(IterRow::default()));
        if self
            .open
            .insert(
                id,
                Frame {
                    name: name.to_string(),
                    parent,
                    path,
                    child_ns: 0,
                    iter,
                },
            )
            .is_some()
        {
            self.warn(format!("line {lineno}: span id {id} entered twice"));
        }
    }

    fn on_exit(&mut self, ev: &Json, lineno: u64) {
        let (Some(id), Some(name), Some(dur)) = (
            ev.get("id").and_then(Json::as_i64),
            ev.get("span").and_then(Json::as_str),
            ev.get("dur_ns").and_then(Json::as_i64),
        ) else {
            self.warn(format!("line {lineno}: exit without id/span/dur_ns"));
            return;
        };
        let dur = dur.max(0) as u64;
        let Some(frame) = self.open.remove(&(id as u64)) else {
            self.warn(format!(
                "line {lineno}: exit of {name:?} (id {id}) was never entered"
            ));
            return;
        };
        if frame.name != name {
            self.warn(format!(
                "line {lineno}: exit of {name:?} closes span entered as {:?}",
                frame.name
            ));
        }
        let self_ns = dur.saturating_sub(frame.child_ns);
        // Credit the parent with this child's time.
        if let Some(pf) = frame.parent.and_then(|p| self.open.get_mut(&p)) {
            pf.child_ns += dur;
        }
        // Name and path aggregates.
        let ns = self.out.spans.entry(frame.name.clone()).or_default();
        ns.calls += 1;
        ns.total_ns += dur;
        ns.self_ns += self_ns;
        ns.dur.record(dur);
        let ps = self.out.paths.entry(frame.path.clone()).or_default();
        ps.calls += 1;
        ps.total_ns += dur;
        ps.self_ns += self_ns;
        // CEGIS phase attribution.
        let c = &mut self.out.cegis;
        match frame.name.as_str() {
            "cegis.run" => {
                c.runs += 1;
                c.total_ns += dur;
            }
            "cegis.iter" => {
                c.iters += 1;
                let mut row = frame.iter.map(|b| *b).unwrap_or_default();
                row.total_ns = dur;
                if c.per_iter.len() < PER_ITER_CAP {
                    c.per_iter.push(row);
                } else {
                    c.per_iter_capped = true;
                }
            }
            "cegis.synth" => c.synth_ns += dur,
            "cegis.verify" => c.verify_ns += dur,
            "cegis.shrink" => c.shrink_ns += dur,
            "cegis.assume" => c.assume_ns += dur,
            "sat.simplify" => c.simplify_ns += dur,
            _ => {}
        }
        // Per-iteration nested attribution: credit the nearest open
        // cegis.iter ancestor.
        if matches!(
            frame.name.as_str(),
            "cegis.synth" | "cegis.verify" | "sat.simplify"
        ) {
            let mut cur = frame.parent;
            while let Some(pid) = cur {
                match self.open.get_mut(&pid) {
                    Some(pf) => {
                        if let Some(row) = pf.iter.as_deref_mut() {
                            match frame.name.as_str() {
                                "cegis.synth" => row.synth_ns += dur,
                                "cegis.verify" => row.verify_ns += dur,
                                "sat.simplify" => row.simplify_ns += dur,
                                _ => {}
                            }
                            break;
                        }
                        cur = pf.parent;
                    }
                    None => break,
                }
            }
        }
    }

    /// Finishes the stream: reports still-open spans as warnings and
    /// returns the profile.
    pub fn finish(mut self) -> Profile {
        if !self.open.is_empty() {
            let mut names: Vec<&str> = self.open.values().map(|f| f.name.as_str()).collect();
            names.sort_unstable();
            self.warn(format!(
                "{} spans never exited (their time is not counted): {names:?}",
                names.len()
            ));
        }
        let c = &mut self.out.cegis;
        c.other_ns = c
            .total_ns
            .saturating_sub(c.synth_ns + c.verify_ns + c.shrink_ns + c.assume_ns);
        self.out
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
    fn cegis_breakdown_attributes_phases_per_iteration() {
        let trace = [
            r#"{"t_ns":0,"ev":"enter","span":"cegis.run","id":1}"#,
            r#"{"t_ns":1,"ev":"enter","span":"cegis.assume","id":2,"parent":1}"#,
            r#"{"t_ns":3,"ev":"exit","span":"cegis.assume","id":2,"parent":1,"dur_ns":2}"#,
            // iter 1: synth 50 (30 of it simplification), verify 40
            r#"{"t_ns":10,"ev":"enter","span":"cegis.iter","id":3,"parent":1}"#,
            r#"{"t_ns":11,"ev":"enter","span":"cegis.synth","id":4,"parent":3}"#,
            r#"{"t_ns":20,"ev":"enter","span":"smt.check","id":5,"parent":4}"#,
            r#"{"t_ns":21,"ev":"enter","span":"sat.simplify","id":6,"parent":5}"#,
            r#"{"t_ns":51,"ev":"exit","span":"sat.simplify","id":6,"parent":5,"dur_ns":30}"#,
            r#"{"t_ns":55,"ev":"exit","span":"smt.check","id":5,"parent":4,"dur_ns":35}"#,
            r#"{"t_ns":61,"ev":"exit","span":"cegis.synth","id":4,"parent":3,"dur_ns":50}"#,
            r#"{"t_ns":62,"ev":"enter","span":"cegis.verify","id":7,"parent":3}"#,
            r#"{"t_ns":102,"ev":"exit","span":"cegis.verify","id":7,"parent":3,"dur_ns":40}"#,
            r#"{"t_ns":105,"ev":"exit","span":"cegis.iter","id":3,"parent":1,"dur_ns":95}"#,
            // iter 2: synth 20, no verify (interrupted, say)
            r#"{"t_ns":110,"ev":"enter","span":"cegis.iter","id":8,"parent":1}"#,
            r#"{"t_ns":111,"ev":"enter","span":"cegis.synth","id":9,"parent":8}"#,
            r#"{"t_ns":131,"ev":"exit","span":"cegis.synth","id":9,"parent":8,"dur_ns":20}"#,
            r#"{"t_ns":135,"ev":"exit","span":"cegis.iter","id":8,"parent":1,"dur_ns":25}"#,
            // shrink at run level
            r#"{"t_ns":140,"ev":"enter","span":"cegis.shrink","id":10,"parent":1}"#,
            r#"{"t_ns":170,"ev":"exit","span":"cegis.shrink","id":10,"parent":1,"dur_ns":30}"#,
            r#"{"t_ns":180,"ev":"exit","span":"cegis.run","id":1,"dur_ns":180}"#,
        ]
        .join("\n");
        let p = profile_str(&trace);
        assert_eq!(p.warning_count, 0, "{:?}", p.warnings);
        let c = &p.cegis;
        assert_eq!((c.runs, c.iters), (1, 2));
        assert_eq!(c.total_ns, 180);
        assert_eq!(c.synth_ns, 70);
        assert_eq!(c.verify_ns, 40);
        assert_eq!(c.shrink_ns, 30);
        assert_eq!(c.assume_ns, 2);
        assert_eq!(c.simplify_ns, 30);
        // other = 180 - (70+40+30+2) = 38
        assert_eq!(c.other_ns, 38);
        let [i1, i2] = [&c.per_iter[0], &c.per_iter[1]];
        assert_eq!((i1.total_ns, i1.synth_ns, i1.verify_ns), (95, 50, 40));
        assert_eq!(i1.simplify_ns, 30);
        assert_eq!((i2.total_ns, i2.synth_ns, i2.verify_ns), (25, 20, 0));
        assert!(!c.per_iter_capped);
        let cov = c.coverage_pct();
        assert!((cov - 100.0 * 140.0 / 180.0).abs() < 1e-9, "{cov}");
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
            "never exited",
        ] {
            assert!(all.contains(needle), "missing {needle:?} in:\n{all}");
        }
        // Nothing completed, so no span aggregates; and render() holds up.
        assert!(p.spans.is_empty());
        let text = p.render(10);
        assert!(text.contains("warning:"), "{text}");
        // JSON export also survives.
        let j = p.to_json();
        assert!(j.get("warnings").unwrap().as_arr().unwrap().len() >= 6);
    }

    #[test]
    fn profile_json_shape() {
        let p = profile_str(&golden());
        let j = p.to_json();
        for key in [
            "lines",
            "events",
            "warning_count",
            "warnings",
            "spans",
            "records",
            "counters",
            "gauges",
            "cegis",
        ] {
            assert!(j.get(key).is_some(), "missing {key}");
        }
        let spans = j.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 3);
        for s in spans {
            for key in ["name", "calls", "total_ns", "self_ns", "dur"] {
                assert!(s.get(key).is_some(), "span missing {key}");
            }
        }
        let c = j.get("cegis").unwrap();
        assert_eq!(c.get("runs").unwrap().as_i64(), Some(0));
        assert_eq!(c.get("coverage_pct").unwrap().as_f64(), Some(100.0));
        // The whole document round-trips through the printer/parser.
        let text = j.to_pretty();
        assert_eq!(&Json::parse(&text).unwrap(), &j);
    }
}
