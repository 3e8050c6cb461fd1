//! Trace sinks: where events go.
//!
//! A [`Sink`] receives every event a [`crate::Tracer`] emits.  Timestamps
//! are assigned *by the sink, under its own lock*, so each sink's output
//! stream has monotone non-decreasing `t_ns` values even when several
//! threads (Opt7 race branches) share one sink.

use crate::json::write_str;
use crate::profile::{Profile, Profiler};
use crate::{Event, EventKind, Level};
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
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
/// {"t_ns":6,"ev":"record","name":"verify.conflicts","value":12}
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
            write_str(&mut line, b);
        }
        match ev.kind {
            EventKind::SpanEnter { name, id, parent } => {
                line.push_str(",\"ev\":\"enter\",\"span\":");
                write_str(&mut line, name);
                let _ = write!(line, ",\"id\":{id}");
                if let Some(p) = parent {
                    let _ = write!(line, ",\"parent\":{p}");
                }
            }
            EventKind::SpanExit { name, id, dur_ns } => {
                line.push_str(",\"ev\":\"exit\",\"span\":");
                write_str(&mut line, name);
                let _ = write!(line, ",\"id\":{id},\"dur_ns\":{dur_ns}");
            }
            EventKind::Counter { name, delta } => {
                line.push_str(",\"ev\":\"count\",\"name\":");
                write_str(&mut line, name);
                let _ = write!(line, ",\"delta\":{delta}");
            }
            EventKind::Gauge { name, value } => {
                line.push_str(",\"ev\":\"gauge\",\"name\":");
                write_str(&mut line, name);
                let _ = write!(line, ",\"value\":{value}");
            }
            EventKind::Message { level, text } => {
                let _ = write!(line, ",\"ev\":\"msg\",\"level\":\"{}\",\"text\":", level);
                write_str(&mut line, text);
            }
            EventKind::Record { name, value } => {
                line.push_str(",\"ev\":\"record\",\"name\":");
                write_str(&mut line, name);
                let _ = write!(line, ",\"value\":{value}");
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

/// Human-readable sink: prints `msg` events to stderr as they happen
/// (verbosity filtering happens in the tracer) and folds every event into
/// a [`Profiler`], whose [`Profile::render`] table it prints on
/// [`Sink::flush`] or drop, whichever comes first.  The flush path matters
/// for a global summary tracer ([`crate::init_global`]), which lives in a
/// never-dropped static: processes flush it before exiting
/// ([`crate::Tracer::flush`]).
pub struct SummarySink {
    profiler: Mutex<Profiler>,
    /// Print the profile to stderr on flush/drop.
    print: bool,
    /// Whether the profile has already been printed (prints at most once).
    printed: AtomicBool,
}

impl SummarySink {
    fn new(print: bool) -> SummarySink {
        SummarySink {
            profiler: Mutex::new(Profiler::new()),
            print,
            printed: AtomicBool::new(false),
        }
    }

    /// A sink that prints its profile to stderr when flushed or dropped.
    pub fn stderr() -> SummarySink {
        SummarySink::new(true)
    }

    /// A silent aggregator (for tests and programmatic inspection).
    pub fn silent() -> SummarySink {
        SummarySink::new(false)
    }

    fn print_once(&self) {
        if self.print && !self.printed.swap(true, Ordering::SeqCst) {
            eprint!("{}", self.profile().render(usize::MAX));
        }
    }

    /// The profile of every event so far.
    pub fn profile(&self) -> Profile {
        self.profiler.lock().map(|p| p.finish()).unwrap_or_default()
    }
}

impl Sink for SummarySink {
    fn emit(&self, ev: &Event<'_>) {
        if let EventKind::Message { level, text } = ev.kind {
            match ev.branch {
                Some(b) => eprintln!("[{level}][{b}] {text}"),
                None => eprintln!("[{level}] {text}"),
            }
        }
        if let Ok(mut p) = self.profiler.lock() {
            p.feed(ev);
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
    /// Distribution sample.
    Record {
        /// Distribution name.
        name: String,
        /// The sample.
        value: u64,
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
        };
        if let Ok(mut e) = self.events.lock() {
            e.push(owned);
        }
    }
}
