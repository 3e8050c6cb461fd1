//! Trace sinks: where events go.
//!
//! A [`Sink`] receives every event a [`crate::Tracer`] emits.  Timestamps
//! are assigned *by the sink, under its own lock*, so each sink's output
//! stream has monotone non-decreasing `t_ns` values even when several
//! threads (Opt7 race branches) share one sink.

use crate::{Event, EventKind, Level};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Receiver of trace events.  Implementations must be cheap and must not
/// panic: tracing is diagnostics, not control flow.
pub trait Sink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, ev: &Event<'_>);

    /// Flushes buffered output (called by [`crate::Tracer::flush`]).
    fn flush(&self) {}
}

/// Discards everything.  The [`crate::Tracer::disabled`] tracer never even
/// constructs events, so this sink only matters when a caller explicitly
/// wants an *enabled* tracer with no output (overhead benchmarking).
pub struct NoopSink;

impl Sink for NoopSink {
    fn emit(&self, _ev: &Event<'_>) {}
}

/// JSON-lines sink: one self-describing JSON object per event.
///
/// Line shapes (all carry `t_ns`, nanoseconds since the sink was created,
/// and `branch` when the emitting tracer is a race branch):
///
/// ```json
/// {"t_ns":1,"ev":"enter","span":"cegis.run","id":7,"parent":3}
/// {"t_ns":2,"ev":"exit","span":"cegis.run","id":7,"dur_ns":120}
/// {"t_ns":3,"ev":"count","name":"cegis.cex","delta":1}
/// {"t_ns":4,"ev":"gauge","name":"smt.sat_vars","value":983}
/// {"t_ns":5,"ev":"msg","level":"info","text":"budget level 2"}
/// ```
pub struct JsonlSink {
    out: Mutex<Box<dyn Write + Send>>,
    epoch: Instant,
}

impl JsonlSink {
    /// Creates (truncating) the file at `path`.
    ///
    /// The file is written *unbuffered* — one `write` per event.  The
    /// global tracer ([`crate::init_global`]) lives in a static that is
    /// never dropped,
    /// so anything still sitting in a userspace buffer at process exit
    /// would be lost, silently truncating the trace tail (typically the
    /// outermost span exits).
    ///
    /// # Errors
    ///
    /// Propagates the `File::create` failure.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let f = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(f)))
    }

    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink {
            out: Mutex::new(out),
            epoch: Instant::now(),
        }
    }
}

/// Writes a JSON string literal without allocating a `Json` value.
fn write_json_str(line: &mut String, s: &str) {
    use std::fmt::Write as _;
    let _ = write!(line, "{}", crate::json::Json::Str(s.to_string()));
}

impl Sink for JsonlSink {
    fn emit(&self, ev: &Event<'_>) {
        use std::fmt::Write as _;
        let Ok(mut out) = self.out.lock() else {
            return;
        };
        // Stamped under the lock: the file's t_ns sequence is monotone.
        let t_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut line = String::with_capacity(96);
        let _ = write!(line, "{{\"t_ns\":{t_ns}");
        if let Some(b) = ev.branch {
            line.push_str(",\"branch\":");
            write_json_str(&mut line, b);
        }
        match ev.kind {
            EventKind::SpanEnter { name, id, parent } => {
                line.push_str(",\"ev\":\"enter\",\"span\":");
                write_json_str(&mut line, name);
                let _ = write!(line, ",\"id\":{id}");
                if let Some(p) = parent {
                    let _ = write!(line, ",\"parent\":{p}");
                }
            }
            EventKind::SpanExit { name, id, dur_ns } => {
                line.push_str(",\"ev\":\"exit\",\"span\":");
                write_json_str(&mut line, name);
                let _ = write!(line, ",\"id\":{id},\"dur_ns\":{dur_ns}");
            }
            EventKind::Counter { name, delta } => {
                line.push_str(",\"ev\":\"count\",\"name\":");
                write_json_str(&mut line, name);
                let _ = write!(line, ",\"delta\":{delta}");
            }
            EventKind::Gauge { name, value } => {
                line.push_str(",\"ev\":\"gauge\",\"name\":");
                write_json_str(&mut line, name);
                let _ = write!(line, ",\"value\":{value}");
            }
            EventKind::Message { level, text } => {
                let _ = write!(line, ",\"ev\":\"msg\",\"level\":\"{}\",\"text\":", level);
                write_json_str(&mut line, text);
            }
            EventKind::Record { name, value } => {
                line.push_str(",\"ev\":\"record\",\"name\":");
                write_json_str(&mut line, name);
                let _ = write!(line, ",\"value\":{value}");
            }
            EventKind::Hist { name, hist } => {
                line.push_str(",\"ev\":\"hist\",\"name\":");
                write_json_str(&mut line, name);
                let _ = write!(
                    line,
                    ",\"count\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{}",
                    hist.count(),
                    hist.min(),
                    hist.max(),
                    crate::Json::Float(hist.mean()),
                    hist.p50(),
                    hist.p90(),
                    hist.p99()
                );
            }
        }
        line.push_str("}\n");
        let _ = out.write_all(line.as_bytes());
    }

    fn flush(&self) {
        if let Ok(mut out) = self.out.lock() {
            let _ = out.flush();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Aggregated per-name totals of one trace: span counts and total
/// durations, counter sums, last gauge values.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Per span name: (times entered, total nanoseconds inside).
    pub spans: BTreeMap<String, (u64, u64)>,
    /// Per counter name: sum of deltas.
    pub counters: BTreeMap<String, u64>,
    /// Per gauge name: last reported value.
    pub gauges: BTreeMap<String, u64>,
    /// Per histogram name: (count, p50, p90, p99) from the `hist` summary
    /// events the tracer emits at flush.
    pub hists: BTreeMap<String, (u64, u64, u64, u64)>,
}

impl Summary {
    /// Renders a human-readable table.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "-- trace summary --");
        for (name, (n, total_ns)) in &self.spans {
            let _ = writeln!(
                out,
                "span  {name:<28} x{n:<6} total {:>10.3} ms",
                *total_ns as f64 / 1e6
            );
        }
        for (name, v) in &self.counters {
            let _ = writeln!(out, "count {name:<28} {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge {name:<28} {v}");
        }
        for (name, (n, p50, p90, p99)) in &self.hists {
            let _ = writeln!(
                out,
                "hist  {name:<28} x{n:<6} p50 {p50} p90 {p90} p99 {p99}"
            );
        }
        out
    }
}

/// Human-readable sink: prints `msg` events to stderr as they happen
/// (verbosity filtering happens in the tracer) and aggregates everything
/// else into a [`Summary`] printed on [`Sink::flush`] or drop, whichever
/// comes first.  The flush path matters for a global summary tracer
/// ([`crate::init_global`]), which lives in a never-dropped static: processes flush it
/// before exiting ([`crate::Tracer::flush`]).
pub struct SummarySink {
    state: Mutex<Summary>,
    /// Print the aggregate table to stderr on flush/drop.
    print: bool,
    /// Whether the table has already been printed (prints at most once).
    printed: std::sync::atomic::AtomicBool,
}

impl SummarySink {
    /// A sink that prints its summary table to stderr when flushed or
    /// dropped.
    pub fn stderr() -> SummarySink {
        SummarySink {
            state: Mutex::new(Summary::default()),
            print: true,
            printed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// A silent aggregator (for tests and programmatic inspection).
    pub fn silent() -> SummarySink {
        SummarySink {
            state: Mutex::new(Summary::default()),
            print: false,
            printed: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn print_once(&self) {
        if self.print && !self.printed.swap(true, std::sync::atomic::Ordering::SeqCst) {
            eprint!("{}", self.snapshot().render());
        }
    }

    /// A copy of the aggregate state so far.
    pub fn snapshot(&self) -> Summary {
        self.state.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

impl Sink for SummarySink {
    fn emit(&self, ev: &Event<'_>) {
        match ev.kind {
            EventKind::SpanEnter { .. } => {}
            EventKind::SpanExit { name, dur_ns, .. } => {
                if let Ok(mut s) = self.state.lock() {
                    let e = s.spans.entry(name.to_string()).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += dur_ns;
                }
            }
            EventKind::Counter { name, delta } => {
                if let Ok(mut s) = self.state.lock() {
                    *s.counters.entry(name.to_string()).or_insert(0) += delta;
                }
            }
            EventKind::Gauge { name, value } => {
                if let Ok(mut s) = self.state.lock() {
                    s.gauges.insert(name.to_string(), value);
                }
            }
            EventKind::Message { level, text } => match ev.branch {
                Some(b) => eprintln!("[{level}][{b}] {text}"),
                None => eprintln!("[{level}] {text}"),
            },
            // Raw samples are aggregated by the tracer's registry; the
            // flush-time summaries land in the table below.
            EventKind::Record { .. } => {}
            EventKind::Hist { name, hist } => {
                if let Ok(mut s) = self.state.lock() {
                    s.hists.insert(
                        name.to_string(),
                        (hist.count(), hist.p50(), hist.p90(), hist.p99()),
                    );
                }
            }
        }
    }

    fn flush(&self) {
        self.print_once();
    }
}

impl Drop for SummarySink {
    fn drop(&mut self) {
        self.print_once();
    }
}

/// An owned copy of an [`Event`] (the borrowed form cannot outlive the
/// emit call).  Collected by [`MemorySink`] for assertions in tests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OwnedEvent {
    /// Span entry.
    Enter {
        /// Span name.
        name: String,
        /// Span id.
        id: u64,
        /// Enclosing span id, if any.
        parent: Option<u64>,
    },
    /// Span exit.
    Exit {
        /// Span name.
        name: String,
        /// Span id.
        id: u64,
        /// Time spent inside, nanoseconds.
        dur_ns: u64,
    },
    /// Counter increment.
    Count {
        /// Counter name.
        name: String,
        /// Increment.
        delta: u64,
    },
    /// Gauge report.
    Gauge {
        /// Gauge name.
        name: String,
        /// Value.
        value: u64,
    },
    /// Log message.
    Msg {
        /// Severity.
        level: Level,
        /// Text.
        text: String,
    },
    /// Explicit histogram sample.
    Record {
        /// Histogram name.
        name: String,
        /// The sample.
        value: u64,
    },
    /// Flush-time histogram summary.
    Hist {
        /// Histogram name.
        name: String,
        /// Samples recorded.
        count: u64,
        /// Median.
        p50: u64,
        /// 99th percentile.
        p99: u64,
    },
}

/// Test sink: records owned copies of every event.
#[derive(Default)]
pub struct MemorySink {
    events: Mutex<Vec<OwnedEvent>>,
}

impl MemorySink {
    /// An empty recorder.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// All events recorded so far.
    pub fn events(&self) -> Vec<OwnedEvent> {
        self.events.lock().map(|e| e.clone()).unwrap_or_default()
    }
}

impl Sink for MemorySink {
    fn emit(&self, ev: &Event<'_>) {
        let owned = match ev.kind {
            EventKind::SpanEnter { name, id, parent } => OwnedEvent::Enter {
                name: name.to_string(),
                id,
                parent,
            },
            EventKind::SpanExit { name, id, dur_ns } => OwnedEvent::Exit {
                name: name.to_string(),
                id,
                dur_ns,
            },
            EventKind::Counter { name, delta } => OwnedEvent::Count {
                name: name.to_string(),
                delta,
            },
            EventKind::Gauge { name, value } => OwnedEvent::Gauge {
                name: name.to_string(),
                value,
            },
            EventKind::Message { level, text } => OwnedEvent::Msg {
                level,
                text: text.to_string(),
            },
            EventKind::Record { name, value } => OwnedEvent::Record {
                name: name.to_string(),
                value,
            },
            EventKind::Hist { name, hist } => OwnedEvent::Hist {
                name: name.to_string(),
                count: hist.count(),
                p50: hist.p50(),
                p99: hist.p99(),
            },
        };
        if let Ok(mut e) = self.events.lock() {
            e.push(owned);
        }
    }
}
