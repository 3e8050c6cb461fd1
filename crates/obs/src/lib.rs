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
//! JSON lines), [`SummarySink`] (human-readable aggregate), or
//! [`MemorySink`] (tests).  A *disabled* tracer ([`Tracer::disabled`])
//! short-circuits before constructing any event — one branch on an
//! `Option` — so instrumented code costs nothing when tracing is off.
//!
//! ## Wiring
//!
//! Instrumented code asks for the ambient tracer with [`current`]: the
//! thread-local tracer if one is installed ([`set_thread_tracer`]), else
//! the process-global one ([`global`]), which is initialized from the
//! environment on first use:
//!
//! * `PH_TRACE=<path>` — write a JSON-lines trace to `<path>`;
//! * `PH_TRACE=summary` — print messages live and an aggregate table at
//!   exit;
//! * `PH_TRACE_LEVEL=error|warn|info|debug|trace` — message verbosity
//!   (default `info`);
//! * unset — tracing disabled.
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

pub mod heartbeat;
pub mod hist;
pub mod json;
pub mod profile;
mod sink;
pub mod stats;

pub use heartbeat::HeartbeatSink;
pub use hist::Histogram;
pub use json::{Json, JsonError};
pub use sink::{JsonlSink, MemorySink, NoopSink, OwnedEvent, Sink, Summary, SummarySink};
pub use stats::StatValue;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
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

impl Level {
    /// Parses `"error"`/`"warn"`/... (case-insensitive).
    pub fn parse(s: &str) -> Option<Level> {
        match s.to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            _ => None,
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
    /// An explicit histogram sample ([`Tracer::record`]); span durations
    /// are recorded too but not re-emitted (the exit event already
    /// carries `dur_ns`).
    Record {
        /// Histogram name.
        name: &'a str,
        /// The sample.
        value: u64,
    },
    /// A histogram summary, emitted once per recorded name at
    /// [`Tracer::flush`].
    Hist {
        /// Histogram name (span name or [`Tracer::record`] name).
        name: &'a str,
        /// The aggregated distribution.
        hist: &'a hist::Histogram,
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
    /// Per-name latency/value histograms, shared across branch and
    /// verbosity clones so one run's spans aggregate into one registry.
    hists: Arc<Mutex<BTreeMap<String, hist::Histogram>>>,
}

impl Inner {
    /// Records a sample into the shared histogram registry.
    fn record_hist(&self, name: &str, value: u64) {
        if let Ok(mut h) = self.hists.lock() {
            match h.get_mut(name) {
                Some(hist) => hist.record(value),
                None => {
                    let mut hist = hist::Histogram::new();
                    hist.record(value);
                    h.insert(name.to_string(), hist);
                }
            }
        }
    }
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
                hists: Arc::new(Mutex::new(BTreeMap::new())),
            })),
        }
    }

    /// Builds the tracer the environment asks for (see the
    /// [crate docs](crate) for the `PH_TRACE` / `PH_TRACE_LEVEL` knobs).
    /// Unset or unusable configurations yield a disabled tracer.
    pub fn from_env() -> Tracer {
        let verbosity = std::env::var("PH_TRACE_LEVEL")
            .ok()
            .and_then(|s| Level::parse(&s))
            .unwrap_or(Level::Info);
        let spec = std::env::var("PH_TRACE").unwrap_or_default();
        if spec.is_empty() {
            // No trace requested; PH_HEARTBEAT_SECS alone still gets
            // periodic progress lines (over a no-op sink).
            return match heartbeat::standalone_from_env() {
                Some(sink) => Tracer::new(sink).with_verbosity(verbosity),
                None => Tracer::disabled(),
            };
        }
        let sink: Arc<dyn Sink> = if spec == "summary" {
            Arc::new(SummarySink::stderr())
        } else {
            match JsonlSink::create(std::path::Path::new(&spec)) {
                Ok(s) => Arc::new(s),
                Err(e) => {
                    eprintln!("ph-obs: cannot open PH_TRACE={spec}: {e}; tracing disabled");
                    return Tracer::disabled();
                }
            }
        };
        Tracer::new(heartbeat::wrap_from_env(sink)).with_verbosity(verbosity)
    }

    /// Sets the message verbosity threshold.
    pub fn with_verbosity(mut self, verbosity: Level) -> Tracer {
        if let Some(inner) = self.inner.take() {
            self.inner = Some(Arc::new(Inner {
                sink: inner.sink.clone(),
                branch: inner.branch.clone(),
                verbosity,
                hists: inner.hists.clone(),
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
                    hists: inner.hists.clone(),
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

    /// Records a sample into the named histogram (and emits a `record`
    /// event so raw values survive into traces).  Span durations are
    /// recorded automatically under the span's name; use this for
    /// non-duration distributions (per-query conflicts, clause counts).
    pub fn record(&self, name: &str, value: u64) {
        if let Some(inner) = &self.inner {
            inner.record_hist(name, value);
            self.emit(inner, EventKind::Record { name, value });
        }
    }

    /// A copy of every histogram recorded so far (span durations in
    /// nanoseconds plus explicit [`Tracer::record`] series), keyed by
    /// name.  Shared across branch clones of this tracer.
    pub fn hist_snapshot(&self) -> BTreeMap<String, hist::Histogram> {
        match &self.inner {
            Some(inner) => inner.hists.lock().map(|h| h.clone()).unwrap_or_default(),
            None => BTreeMap::new(),
        }
    }

    /// Flushes the sink's buffered output, first emitting one `hist`
    /// summary event per recorded histogram name (p50/p90/p99 land in the
    /// trace and in summary tables without any offline pass).
    pub fn flush(&self) {
        if let Some(inner) = &self.inner {
            for (name, hist) in self.hist_snapshot() {
                self.emit(
                    inner,
                    EventKind::Hist {
                        name: &name,
                        hist: &hist,
                    },
                );
            }
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
            inner.record_hist(st.name, dur_ns);
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

/// The process-global tracer; built from the environment
/// ([`Tracer::from_env`]) on first use unless [`init_global`] ran first.
pub fn global() -> &'static Tracer {
    GLOBAL.get_or_init(Tracer::from_env)
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
        let s = sink.snapshot();
        assert_eq!(s.counters["cex"], 3);
        assert_eq!(s.counters["other"], 5);
        assert_eq!(s.gauges["vars"], 12);
        assert_eq!(s.spans["phase"].0, 2);
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
        let buf = Arc::new(Mutex2::default());
        struct Shared(Arc<Mutex2>);
        impl std::io::Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0 .0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = Arc::new(JsonlSink::new(Box::new(Shared(buf.clone()))));
        let tracer = Tracer::new(sink);
        {
            let _a = tracer.span("a");
            tracer.count("k", 3);
        }
        tracer.msg(Level::Info, "hi \"quoted\"");
        tracer.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let mut last = 0i64;
        let mut n = 0;
        let mut hist_lines = 0;
        for line in text.lines() {
            let v = Json::parse(line).expect("line parses");
            let t = v.get("t_ns").unwrap().as_i64().unwrap();
            assert!(t >= last, "timestamps must be monotone");
            last = t;
            n += 1;
            if v.get("ev").and_then(Json::as_str) == Some("hist") {
                hist_lines += 1;
                assert_eq!(v.get("name").and_then(Json::as_str), Some("a"));
                assert_eq!(v.get("count").and_then(Json::as_i64), Some(1));
                assert!(v.get("p99").and_then(Json::as_i64).is_some());
            }
        }
        // 2 span events + 1 count + 1 msg + the flush-time histogram
        // summary of span "a"'s duration.
        assert_eq!((n, hist_lines), (5, 1));
    }

    #[derive(Default)]
    struct Mutex2(std::sync::Mutex<Vec<u8>>);
}
