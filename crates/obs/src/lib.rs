//! # ph-obs
//!
//! In-tree structured tracing and metrics for the ParserHawk pipeline —
//! the workspace's zero-dependency replacement for the `tracing`
//! ecosystem (the repo builds fully offline, so the observability layer
//! is built in-tree).
//!
//! Three primitives:
//!
//! * **Spans** — hierarchical RAII timing guards.  [`Tracer::span`]
//!   returns a [`Span`] that emits an `enter` event with its parent (the
//!   innermost open span on the current thread) and an `exit` event with
//!   a monotonic duration when dropped.
//! * **Counters / gauges** — named monotone increments
//!   ([`Tracer::count`]) and point-in-time values ([`Tracer::gauge`]).
//! * **Messages** — verbosity-gated log lines ([`Tracer::msg`],
//!   [`Tracer::msg_with`]) replacing ad-hoc `eprintln!` progress output.
//!
//! Events flow into a pluggable [`Sink`]: [`NoopSink`] (enabled but
//! silent, for overhead measurement), [`JsonlSink`] (machine-readable
//! JSON lines), [`SummarySink`] (live messages, then the span profile at
//! flush), or [`MemorySink`] (tests).  A *disabled* tracer
//! ([`Tracer::disabled`]) short-circuits before constructing any event —
//! one branch on an `Option` — so instrumented code costs nothing when
//! tracing is off.
//!
//! The tracer itself aggregates nothing.  [`profile::Profiler`] is the one
//! fold of an event stream: per-name and per-path span calls, total and
//! self time, duration histograms, counters, gauges and `record`
//! distributions.  It takes typed [`Event`]s live ([`SummarySink`]) or
//! JSONL lines from a trace file (`trace_prof`, `check_schema`, the
//! benchmark ledger), so every export of a run comes from the same
//! numbers.
//!
//! ## Wiring
//!
//! Instrumented code asks for the ambient tracer with [`current`]: the
//! thread-local tracer if one is installed ([`set_thread_tracer`]), else
//! the process-global one ([`global`]).  The global tracer is disabled
//! unless the binary installs one with [`init_global`] before the first
//! use; the library never reads the environment.  The benchmark binaries
//! build theirs from `PH_TRACE` / `PH_TRACE_LEVEL` (see `ph_bench::Config`).
//!
//! A synthesis run can also carry its own tracer in
//! `SynthParams::tracer`; the CEGIS engine installs it as the thread
//! tracer for the run's duration, and Opt7 race branches derive
//! per-branch streams with [`Tracer::with_branch`] so winner/loser
//! breakdowns stay distinguishable in one shared sink.
//!
//! ```
//! use ph_obs::{MemorySink, Tracer};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tracer = Tracer::new(sink.clone());
//! {
//!     let _outer = tracer.span("outer");
//!     let _inner = tracer.span("inner"); // parent = outer
//!     tracer.count("things", 2);
//! }
//! assert_eq!(sink.events().len(), 5); // 2 enters, 1 count, 2 exits
//! ```

pub mod hist;
pub mod json;
pub mod profile;
mod sink;
pub mod stats;

pub use hist::Histogram;
pub use json::{Json, JsonError};
pub use sink::{JsonlSink, MemorySink, NoopSink, OwnedEvent, Sink, SummarySink};
pub use stats::StatValue;

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Message severity, most severe first.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// The run is broken.
    Error,
    /// Something surprising that the run survives.
    Warn,
    /// Coarse progress (per benchmark case, per budget level).
    Info,
    /// Fine progress (per CEGIS iteration).
    Debug,
    /// Everything.
    Trace,
}

impl std::str::FromStr for Level {
    type Err = ();

    /// Parses `"error"`/`"warn"`/... (case-insensitive).
    fn from_str(s: &str) -> Result<Level, ()> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Ok(Level::Error),
            "warn" => Ok(Level::Warn),
            "info" => Ok(Level::Info),
            "debug" => Ok(Level::Debug),
            "trace" => Ok(Level::Trace),
            _ => Err(()),
        }
    }
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        })
    }
}

/// What happened (borrowed payloads; sinks copy what they keep).
#[derive(Clone, Copy, Debug)]
pub enum EventKind<'a> {
    /// A span was entered.
    SpanEnter {
        /// Span name (a stable dotted identifier, e.g. `cegis.verify`).
        name: &'a str,
        /// Process-unique span id.
        id: u64,
        /// Id of the innermost enclosing span on the same thread.
        parent: Option<u64>,
    },
    /// A span was exited.
    SpanExit {
        /// Span name.
        name: &'a str,
        /// The id from the matching enter.
        id: u64,
        /// Monotonic time spent inside, nanoseconds.
        dur_ns: u64,
    },
    /// A named counter was incremented.
    Counter {
        /// Counter name.
        name: &'a str,
        /// Increment (counters are monotone; report deltas).
        delta: u64,
    },
    /// A named gauge was reported.
    Gauge {
        /// Gauge name.
        name: &'a str,
        /// Current value.
        value: u64,
    },
    /// A log message (already verbosity-filtered by the tracer).
    Message {
        /// Severity.
        level: Level,
        /// Text.
        text: &'a str,
    },
    /// A sample of a named distribution ([`Tracer::record`]).
    Record {
        /// Distribution name.
        name: &'a str,
        /// The sample.
        value: u64,
    },
}

/// One trace event as handed to a [`Sink`].
#[derive(Clone, Copy, Debug)]
pub struct Event<'a> {
    /// The emitting tracer's branch label (Opt7 race branches).
    pub branch: Option<&'a str>,
    /// The payload.
    pub kind: EventKind<'a>,
}

/// Span ids are unique per process so per-branch streams sharing a sink
/// never collide.
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Innermost-last stack of open span ids on this thread.
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Per-thread tracer override (Opt7 race branches, scoped runs).
    static THREAD_TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

struct Inner {
    sink: Arc<dyn Sink>,
    branch: Option<String>,
    verbosity: Level,
}

/// A handle that emits events into a sink, or does nothing when disabled.
///
/// Cloning is cheap (an `Arc` bump); clones share the sink.  See the
/// [crate docs](crate) for the overall model.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.inner {
            None => f.write_str("Tracer(disabled)"),
            Some(i) => write!(
                f,
                "Tracer(enabled, verbosity={}, branch={:?})",
                i.verbosity, i.branch
            ),
        }
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::disabled()
    }
}

impl Tracer {
    /// A tracer that drops everything before constructing it.
    pub fn disabled() -> Tracer {
        Tracer { inner: None }
    }

    /// A tracer feeding `sink`, with verbosity [`Level::Info`].
    pub fn new(sink: Arc<dyn Sink>) -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                sink,
                branch: None,
                verbosity: Level::Info,
            })),
        }
    }

    /// Sets the message verbosity threshold.
    pub fn with_verbosity(mut self, verbosity: Level) -> Tracer {
        if let Some(inner) = self.inner.take() {
            self.inner = Some(Arc::new(Inner {
                sink: inner.sink.clone(),
                branch: inner.branch.clone(),
                verbosity,
            }));
        }
        self
    }

    /// A tracer for a named execution branch (Opt7 racing): same sink,
    /// same id space, every event tagged with `branch`.
    pub fn with_branch(&self, branch: &str) -> Tracer {
        match &self.inner {
            None => Tracer::disabled(),
            Some(inner) => Tracer {
                inner: Some(Arc::new(Inner {
                    sink: inner.sink.clone(),
                    branch: Some(branch.to_string()),
                    verbosity: inner.verbosity,
                })),
            },
        }
    }

    /// Whether events are being recorded at all.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Whether a message at `level` would be recorded.
    pub fn enabled_at(&self, level: Level) -> bool {
        matches!(&self.inner, Some(i) if level <= i.verbosity)
    }

    fn emit(&self, inner: &Inner, kind: EventKind<'_>) {
        inner.sink.emit(&Event {
            branch: inner.branch.as_deref(),
            kind,
        });
    }

    /// Opens a span.  The returned guard emits the exit event (with the
    /// measured duration) when dropped; guards nest by scope.
    #[must_use = "a span measures the scope of its guard; bind it with `let _guard = ...`"]
    pub fn span(&self, name: &'static str) -> Span {
        let Some(inner) = &self.inner else {
            return Span { state: None };
        };
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        self.emit(inner, EventKind::SpanEnter { name, id, parent });
        Span {
            state: Some(SpanState {
                tracer: self.clone(),
                name,
                id,
                start: Instant::now(),
            }),
        }
    }

    /// Increments a named counter.
    pub fn count(&self, name: &str, delta: u64) {
        if let Some(inner) = &self.inner {
            if delta > 0 {
                self.emit(inner, EventKind::Counter { name, delta });
            }
        }
    }

    /// Reports a named gauge value.
    pub fn gauge(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            self.emit(inner, EventKind::Gauge { name, value });
        }
    }

    /// Emits a log message if `level` passes the verbosity threshold.
    pub fn msg(&self, level: Level, text: &str) {
        if let Some(inner) = &self.inner {
            if level <= inner.verbosity {
                self.emit(inner, EventKind::Message { level, text });
            }
        }
    }

    /// Like [`Tracer::msg`] but the text is built lazily — formatting
    /// costs nothing when the message is filtered out.
    pub fn msg_with(&self, level: Level, text: impl FnOnce() -> String) {
        if let Some(inner) = &self.inner {
            if level <= inner.verbosity {
                let text = text();
                self.emit(inner, EventKind::Message { level, text: &text });
            }
        }
    }

    /// Emits a `record` event: one sample of a named non-duration
    /// distribution (per-query conflicts, clause counts).  The profile
    /// ([`profile::Profiler`]) folds the samples, and span durations, into
    /// histograms.
    pub fn record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            self.emit(inner, EventKind::Record { name, value });
        }
    }

    /// Flushes the sink's buffered output.
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            inner.sink.flush();
        }
    }
}

struct SpanState {
    tracer: Tracer,
    name: &'static str,
    id: u64,
    start: Instant,
}

/// RAII guard for an open span (see [`Tracer::span`]).
pub struct Span {
    state: Option<SpanState>,
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(st) = self.state.take() else {
            return;
        };
        let dur_ns = st.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards are scoped, so the top of the stack is this span
            // unless a guard escaped its scope; recover by searching.
            match s.pop() {
                Some(top) if top == st.id => {}
                Some(top) => {
                    s.retain(|&x| x != st.id);
                    s.push(top);
                }
                None => {}
            }
        });
        if let Some(inner) = &st.tracer.inner {
            st.tracer.emit(
                inner,
                EventKind::SpanExit {
                    name: st.name,
                    id: st.id,
                    dur_ns,
                },
            );
        }
    }
}

static GLOBAL: OnceLock<Tracer> = OnceLock::new();

/// The process-global tracer: the one [`init_global`] installed, else a
/// disabled tracer.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::disabled)
}

/// Installs the process-global tracer programmatically.  Returns `false`
/// (and changes nothing) when the global tracer was already initialized.
pub fn init_global(tracer: Tracer) -> bool {
    GLOBAL.set(tracer).is_ok()
}

/// The ambient tracer: this thread's override if one is installed
/// ([`set_thread_tracer`]), else the global one.
pub fn current() -> Tracer {
    THREAD_TRACER.with(|t| match &*t.borrow() {
        Some(tr) => tr.clone(),
        None => global().clone(),
    })
}

/// Guard restoring the previous thread tracer on drop (see
/// [`set_thread_tracer`]).
pub struct ThreadTracerGuard {
    prev: Option<Tracer>,
}

impl Drop for ThreadTracerGuard {
    fn drop(&mut self) {
        THREAD_TRACER.with(|t| *t.borrow_mut() = self.prev.take());
    }
}

/// Overrides [`current`] for this thread until the guard drops.  Used to
/// scope a run-specific tracer (from `SynthParams`) or a per-branch
/// stream (Opt7) without threading a handle through every call.
#[must_use = "the override lasts until the returned guard is dropped"]
pub fn set_thread_tracer(tracer: Tracer) -> ThreadTracerGuard {
    let prev = THREAD_TRACER.with(|t| t.borrow_mut().replace(tracer));
    ThreadTracerGuard { prev }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_balance() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let _a = tracer.span("a");
            {
                let _b = tracer.span("b");
            }
            let _c = tracer.span("c");
        }
        let evs = sink.events();
        let mut open = std::collections::HashMap::new();
        let mut parents = std::collections::HashMap::new();
        let mut ids = std::collections::HashMap::new();
        for ev in &evs {
            match ev {
                OwnedEvent::Enter { name, id, parent } => {
                    open.insert(*id, name.clone());
                    parents.insert(name.clone(), *parent);
                    ids.insert(name.clone(), *id);
                }
                OwnedEvent::Exit { id, .. } => {
                    assert!(open.remove(id).is_some(), "exit without enter");
                }
                _ => panic!("unexpected event {ev:?}"),
            }
        }
        assert!(open.is_empty(), "unbalanced spans: {open:?}");
        assert_eq!(parents["a"], None);
        assert_eq!(parents["b"], Some(ids["a"]));
        assert_eq!(parents["c"], Some(ids["a"]));
    }

    #[test]
    fn exit_order_is_inner_first() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let _a = tracer.span("a");
            let _b = tracer.span("b");
            // both dropped here, b first
        }
        let names: Vec<_> = sink
            .events()
            .iter()
            .filter_map(|e| match e {
                OwnedEvent::Exit { name, .. } => Some(name.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["b", "a"]);
    }

    #[test]
    fn counters_aggregate_in_summary() {
        let sink = Arc::new(SummarySink::silent());
        let tracer = Tracer::new(sink.clone());
        tracer.count("cex", 1);
        tracer.count("cex", 2);
        tracer.count("other", 5);
        tracer.gauge("vars", 10);
        tracer.gauge("vars", 12);
        {
            let _s = tracer.span("phase");
            let _t = tracer.span("phase");
        }
        let p = sink.profile();
        assert_eq!(p.counters["cex"], 3);
        assert_eq!(p.counters["other"], 5);
        assert_eq!(p.gauges["vars"], 12);
        assert_eq!(p.spans["phase"].calls, 2);
        assert_eq!(p.paths["phase;phase"].calls, 1);
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.enabled());
        let _s = tracer.span("x");
        tracer.count("c", 1);
        tracer.msg_with(Level::Error, || panic!("must not format"));
        // `msg_with` must not even build the string when disabled.
    }

    #[test]
    fn verbosity_gates_messages() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone()).with_verbosity(Level::Warn);
        tracer.msg(Level::Info, "dropped");
        tracer.msg(Level::Warn, "kept");
        tracer.msg_with(Level::Debug, || panic!("must not format"));
        let evs = sink.events();
        assert_eq!(
            evs,
            vec![OwnedEvent::Msg {
                level: Level::Warn,
                text: "kept".into()
            }]
        );
    }

    #[test]
    fn branch_tags_propagate() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        let branch = tracer.with_branch("loopy");
        assert!(branch.enabled());
        branch.count("n", 1);
        // MemorySink drops the branch tag; JsonlSink is covered by the
        // core integration test. Here we only check the clone shares the
        // sink.
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn thread_tracer_overrides_global() {
        let sink = Arc::new(MemorySink::new());
        let tracer = Tracer::new(sink.clone());
        {
            let _g = set_thread_tracer(tracer);
            assert!(current().enabled());
            current().count("seen", 1);
        }
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn jsonl_lines_parse_and_are_monotone() {
        let buf = Shared::default();
        let sink = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let tracer = Tracer::new(sink);
        {
            let _a = tracer.span("a");
            tracer.count("k", 3);
        }
        tracer.msg(Level::Info, "hi \"quoted\"");
        tracer.flush();
        let text = buf.text();
        let mut last = 0i64;
        let mut n = 0;
        for line in text.lines() {
            let v = Json::parse(line).expect("line parses");
            let t = v.get("t_ns").unwrap().as_i64().unwrap();
            assert!(t >= last, "timestamps must be monotone");
            last = t;
            n += 1;
        }
        // 2 span events + 1 count + 1 msg; flushing adds no lines.
        assert_eq!(n, 4);
    }

    #[test]
    fn summary_sink_and_jsonl_trace_fold_to_one_profile() {
        /// Hands every event to both sinks, so both see the same durations.
        struct Tee(Vec<Arc<dyn Sink>>);
        impl Sink for Tee {
            fn emit(&self, ev: &Event<'_>) {
                self.0.iter().for_each(|s| s.emit(ev));
            }
        }
        let summary = Arc::new(SummarySink::silent());
        let buf = Shared::default();
        let jsonl = Arc::new(JsonlSink::new(Box::new(buf.clone())));
        let tracer = Tracer::new(Arc::new(Tee(vec![summary.clone(), jsonl])));
        {
            let _a = tracer.span("a");
            tracer.count("k", 3);
            {
                let _b = tracer.span("b");
                tracer.gauge("g", 7);
                tracer.record("r", 5);
            }
            let _b = tracer.span("b");
            tracer.record("r", 9);
            tracer.msg(Level::Info, "hi");
        }
        {
            let branch = tracer.with_branch("loopy");
            let _c = branch.span("c");
            branch.count("k", 1);
            branch.gauge("g", 8);
        }
        let live = summary.profile();
        let folded = profile::profile_str(&buf.text());
        assert_eq!((live.warning_count, folded.warning_count), (0, 0));
        assert_eq!((live.events, folded.events), (15, 15));
        let times = |p: &profile::Profile| -> Vec<(String, u64, u64, u64)> {
            p.spans
                .iter()
                .map(|(n, s)| (n.clone(), s.calls, s.total_ns, s.self_ns))
                .collect()
        };
        assert_eq!(times(&live), times(&folded));
        assert_eq!(live.paths, folded.paths);
        assert_eq!(
            live.paths.keys().collect::<Vec<_>>(),
            ["a", "a;b", "branch:loopy;c"]
        );
        assert_eq!(live.counters, folded.counters);
        assert_eq!(live.counters["k"], 4);
        assert_eq!(live.gauges, folded.gauges);
        assert_eq!(live.gauges["g"], 8);
        assert_eq!(live.records, folded.records);
        assert_eq!(live.records["r"].count(), 2);
    }

    /// A writer appending into a shared buffer.
    #[derive(Clone, Default)]
    struct Shared(Arc<std::sync::Mutex<Vec<u8>>>);

    impl Shared {
        fn text(&self) -> String {
            String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
        }
    }

    impl std::io::Write for Shared {
        fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(b);
            Ok(b.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}
