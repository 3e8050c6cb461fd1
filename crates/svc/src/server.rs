//! The synthesis daemon: a bounded job queue feeding a worker pool,
//! single-flight deduplication, per-request deadlines and graceful drain.
//!
//! Architecture:
//!
//! * the **accept loop** (the thread inside [`Server::run`]) blocks in
//!   [`TcpListener::accept`] and hands each connection to its own handler
//!   thread;
//! * handler threads parse line-delimited requests ([`crate::proto`]) and
//!   operate on the shared state.  A request line longer than
//!   [`MAX_REQUEST_BYTES`] is answered with an error and the connection
//!   closed;
//! * **cache hits are served on the handler thread**: `submit` validates
//!   the spec and looks it up in the configured cache first, as
//!   [`ph_core::Synthesizer::synthesize`] would, and a hit is answered at
//!   once.  It never waits on a worker, never follows a flight and never
//!   counts against the queue;
//! * a **miss** is pushed onto a **bounded queue** — when the queue is at
//!   capacity the request is rejected explicitly
//!   (`{"ok":false,"rejected":true}`), it never blocks the client — and
//!   the handler blocks until the job's result lands and replies inline;
//! * **worker threads** pop jobs, run [`ph_core::Synthesizer`] (with the
//!   disk cache installed when configured, so an entry stored while the
//!   job was queued is still a hit) and hand the result to the job's
//!   reply slot (a `Flight`);
//! * **single-flight** (misses only): identical submissions — same
//!   content key *and* field-for-field the same spec as a job that is
//!   still queued or running — don't enqueue a second synthesis.  The
//!   duplicate becomes a *follower*: it waits on the primary's reply slot
//!   and receives a copy of its result.  Alpha-variants share a content
//!   key but not a field numbering, so they never follow each other: each
//!   runs its own job, and the later ones replay the cache entry remapped
//!   to their own fields.  Combined with the cache this gives
//!   exactly-one-synthesis for any burst of identical requests;
//! * **graceful drain**: a `shutdown` request or a [`ShutdownHandle`]
//!   sets the draining flag and wakes the blocked accept by connecting to
//!   the listener's own address; the accept loop sees the flag, stops
//!   accepting, lets queued and running jobs finish, joins the workers
//!   and returns `Ok(())` — so `phd` exits 0.  SIGTERM reaches the same
//!   path through [`install_sigterm_drain`], which the binary calls.
//!
//! A served request leaves nothing behind: the daemon keeps no job ids
//! and no finished results.  The only per-request state is the reply
//! slot in `inflight`, which the worker removes before it publishes the
//! result, and which is freed once every waiter has written its reply.
//!
//! Socket discipline: every line — request or reply — is formatted into
//! one buffer and sent with one `write_all`, and both ends set
//! `TCP_NODELAY`, so a round trip never waits on Nagle's algorithm and a
//! delayed ACK.
//!
//! Lock discipline: `inflight` → `queue`, never the reverse.  The submit
//! path does its in-flight check and enqueue under one `inflight`
//! critical section, which is what makes deduplication correct; workers
//! take `queue` and `inflight` one at a time.
//!
//! Everything observable increments `svc.*` counters on the ambient
//! [`ph_obs`] tracer.  A request's time is split into spans:
//!
//! * `svc.request.decode` — parsing the line;
//! * `svc.op.*` — the endpoint.  Under `svc.op.submit`:
//!   * `svc.key` — the request's one [`CacheQuery`]: canonicalizing the
//!     spec (`ir.canon`) and deriving the content key, which the reply
//!     and the inline lookup share;
//!   * `cache.lookup` — the inline lookup (reading and decoding the
//!     entry);
//!   * `svc.reply.render` — rendering the program and stats, on a hit;
//!   * `svc.flight.wait` — a miss waiting on its flight, which is the
//!     service's queue wait plus the synthesis;
//! * `svc.reply.write` — serializing the reply into the connection's
//!   reused buffer and the `write_all`;
//! * `svc.job` — a miss's synthesis, on a worker thread.

use crate::cache::DiskCache;
use crate::codec::{self, CodecError};
use crate::proto::{self, Request, SubmitReq};
use ph_bits::Sha256;
use ph_core::{CacheQuery, SynthOutput, SynthParams, Synthesizer};
use ph_ir::canon::spec_fingerprint_text;
use ph_obs::Json;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use ph_core::CacheHook;

/// Set by the SIGTERM handler; polled by the `phd-sigterm` thread
/// (process-global because signal dispositions are).
static TERM_REQUESTED: AtomicBool = AtomicBool::new(false);

/// Installs a SIGTERM handler that drains the server behind `handle`.
///
/// The handler only stores a flag (all that is async-signal-safe), and a
/// `phd-sigterm` thread checks it every 50 ms and calls
/// [`ShutdownHandle::shutdown`].  The accept loop cannot watch the flag
/// itself: glibc's `signal` installs handlers with `SA_RESTART`, so a
/// blocked `accept` never returns `EINTR`.  The workspace links no `libc`
/// crate; `std` already links the platform C library, so the raw
/// `signal(2)` symbol is declared directly.
#[cfg(unix)]
pub fn install_sigterm_drain(handle: ShutdownHandle) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn on_term(_sig: i32) {
        // Async-signal-safe: a single atomic store.
        TERM_REQUESTED.store(true, Ordering::SeqCst);
    }
    const SIGTERM: i32 = 15;
    // SAFETY: `signal(2)` takes a signal number and a handler address;
    // `on_term` is an `extern "C" fn(i32)` that only stores an atomic.
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
    }
    // Detached: the watcher lives until the signal or process exit.
    std::thread::Builder::new()
        .name("phd-sigterm".into())
        .spawn(move || {
            while !TERM_REQUESTED.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(50));
            }
            handle.shutdown();
        })
        .expect("spawn SIGTERM watcher");
}

/// Non-Unix fallback: SIGTERM drain is unavailable; `shutdown` requests
/// and [`ShutdownHandle`] still work.
#[cfg(not(unix))]
pub fn install_sigterm_drain(_handle: ShutdownHandle) {}

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address, e.g. `"127.0.0.1:9077"`; port 0 picks an ephemeral
    /// port (see [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing synthesis jobs.  Cache hits do not use
    /// them: they are answered on the connection's handler thread.
    pub workers: usize,
    /// Bounded queue capacity; cache misses beyond it are rejected.  A
    /// hit never enters the queue, so it is never rejected.
    pub queue_cap: usize,
    /// Result cache consulted by every submission on its handler thread
    /// (a hit is answered there), and consulted again and populated by
    /// every job.
    pub cache: Option<CacheHook>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:9077".into(),
            workers: 2,
            queue_cap: 64,
            cache: None,
        }
    }
}

/// A finished job's payload, pre-rendered for the wire:
/// `Ok((program JSON, program text, stats JSON, cache_hit))` or the
/// synthesis error message.
type JobResult = Result<(Json, String, Json, bool), String>;

/// The reply slot of one in-flight synthesis, shared by the submission
/// that enqueued it and every follower.  It lives only as long as those
/// submitters wait on it: once the last reply is written, it is freed.
#[derive(Default)]
struct Flight {
    result: Mutex<Option<JobResult>>,
    done: Condvar,
}

impl Flight {
    fn finish(&self, result: JobResult) {
        *self.result.lock().unwrap() = Some(result);
        self.done.notify_all();
    }

    /// Blocks until the synthesis behind this flight finishes.
    fn wait(&self) -> JobResult {
        let mut slot = self.result.lock().unwrap();
        loop {
            if let Some(result) = slot.as_ref() {
                return result.clone();
            }
            slot = self.done.wait(slot).unwrap();
        }
    }
}

/// A queued synthesis: the request, its in-flight identity (see
/// [`flight_key`]) and the slot its submitters wait on.
struct Job {
    req: Box<SubmitReq>,
    key: String,
    flight: Arc<Flight>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    dedup_hits: AtomicU64,
    rejected_full: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    /// In-flight identity → reply slot, for jobs still queued or running.
    inflight: Mutex<HashMap<String, Arc<Flight>>>,
    draining: AtomicBool,
    /// The listener's address with an unspecified IP mapped to loopback:
    /// [`Shared::drain`] connects here to wake the blocked accept.
    wake_addr: SocketAddr,
    counters: Counters,
    config: ServerConfig,
}

impl Shared {
    /// Sets the draining flag and, the first time, wakes the accept loop
    /// with a throwaway connection.  Before [`Server::run`] starts, that
    /// connection waits in the listen backlog; after it returns, the
    /// refused connect is harmless.
    fn drain(&self) {
        if !self.draining.swap(true, Ordering::SeqCst) {
            let _ = TcpStream::connect_timeout(&self.wake_addr, Duration::from_secs(1));
        }
        // Notify under the queue lock, so a worker between its flag check
        // and its wait cannot miss the wakeup.
        let _queue = self.queue.lock().unwrap();
        self.queue_cv.notify_all();
    }
}

/// The run parameters of a submission: the defaults, the request's
/// deadline and the daemon's cache.
fn synth_params(shared: &Shared, req: &SubmitReq) -> SynthParams {
    SynthParams {
        timeout: req
            .deadline_ms
            .map(Duration::from_millis)
            .or(SynthParams::default().timeout),
        cache: shared.config.cache.clone(),
        ..SynthParams::default()
    }
}

/// Renders a successful output for the wire, counting it as completed
/// and as a cache hit or miss.
fn render_ok(shared: &Shared, out: &SynthOutput) -> JobResult {
    let _span = ph_obs::current().span("svc.reply.render");
    let hit = out.stats.cache_hits > 0;
    let ctr = if hit {
        &shared.counters.cache_hits
    } else {
        &shared.counters.cache_misses
    };
    ctr.fetch_add(1, Ordering::Relaxed);
    shared.counters.completed.fetch_add(1, Ordering::Relaxed);
    Ok((
        codec::program_to_json(&out.program),
        out.program.to_string(),
        out.stats.to_json(),
        hit,
    ))
}

/// Answers a submission from the cache on the calling thread, doing what
/// [`Synthesizer::synthesize`] does before it solves: validate the spec,
/// look the query up, mark the stats as a hit.  An invalid spec is left
/// to the worker, whose synthesis reports it.
fn lookup_inline(shared: &Shared, query: &CacheQuery<'_>) -> Option<SynthOutput> {
    let hook = shared.config.cache.as_ref()?;
    query.spec.validate().ok()?;
    let tracer = ph_obs::current();
    let mut out = {
        let _span = tracer.span("cache.lookup");
        hook.0.lookup_query(query)
    }?;
    tracer.count("svc.cache.hit", 1);
    out.stats.cache_hits = 1;
    out.stats.cache_misses = 0;
    Some(out)
}

/// Runs one synthesis and renders its reply payload.
fn run_job(shared: &Shared, req: &SubmitReq) -> JobResult {
    let _span = ph_obs::current().span("svc.job");
    let outcome = Synthesizer::new(req.device.clone(), req.opts)
        .with_params(synth_params(shared, req))
        .synthesize(&req.spec);
    match outcome {
        Ok(out) => render_ok(shared, &out),
        Err(e) => {
            shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            Err(e.to_string())
        }
    }
}

/// Worker loop: pop a job, synthesize, hand the result to its waiters.
fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap();
            }
        };
        let result = run_job(shared, &job.req);
        // Retire the in-flight entry before finishing: after this,
        // identical submissions enqueue fresh (and hit the disk cache)
        // instead of following a finished flight.  Only this job's submit
        // inserted the entry and only its worker removes it, so the entry
        // under `job.key` is this job's.
        shared.inflight.lock().unwrap().remove(&job.key);
        job.flight.finish(result);
    }
}

/// The single-flight identity of a submission: its content key plus the
/// exact, uncanonicalized spec.  A follower receives the primary's program
/// verbatim, and programs index fields by position, so only a spec that
/// is field-for-field identical may follow; an alpha-variant shares the
/// content key but not the numbering.
fn flight_key(key: &str, spec: &ph_ir::ParserSpec) -> String {
    Sha256::digest_hex(format!("{key}\n{}", spec_fingerprint_text(spec)).as_bytes())
}

/// The `submit` reply for a finished synthesis or cache hit.
fn submit_response(key: String, deduped: bool, result: JobResult) -> Json {
    let mut resp = proto::ok_response()
        .with("key", key)
        .with("deduped", deduped);
    match result {
        Ok((program, text, stats, cache_hit)) => {
            resp.set("status", "done");
            resp.set("cache_hit", cache_hit);
            resp.set("program", program);
            resp.set("program_text", text);
            resp.set("stats", stats);
        }
        Err(e) => {
            resp.set("status", "failed");
            resp.set("ok", false);
            resp.set("error", e);
        }
    }
    resp
}

/// Handles one submit request end to end: answers a cache hit at once;
/// otherwise places it, blocks until its synthesis finishes and returns
/// the reply.
fn handle_submit(shared: &Shared, req: Box<SubmitReq>) -> Json {
    if shared.draining.load(Ordering::SeqCst) {
        return proto::error_response("draining");
    }
    let tracer = ph_obs::current();
    // One query per request: its canonical spec and content key (the
    // same canonical spec, device model and synthesis knobs as the
    // daemon's workers will use) serve the reply and the inline lookup.
    let params = synth_params(shared, &req);
    let key_span = tracer.span("svc.key");
    let query = CacheQuery::new(&req.spec, &req.device, req.opts, &params);
    let key = DiskCache::query_key(&query).to_string();
    drop(key_span);
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    tracer.count("svc.submitted", 1);
    if let Some(out) = lookup_inline(shared, &query) {
        return submit_response(key, false, render_ok(shared, &out));
    }
    // A miss queues `req` itself; its worker builds its own query.
    drop(query);

    let flight_key = flight_key(&key, &req.spec);

    // In-flight check and enqueue are one critical section so two
    // identical concurrent submissions can't both become primaries.
    let (flight, deduped) = {
        let mut inflight = shared.inflight.lock().unwrap();
        if let Some(flight) = inflight.get(&flight_key) {
            (Arc::clone(flight), true)
        } else {
            let mut queue = shared.queue.lock().unwrap();
            // Re-checked under the queue lock, where workers decide to
            // exit: a job enqueued here is always run.
            if shared.draining.load(Ordering::SeqCst) {
                return proto::error_response("draining");
            }
            if queue.len() >= shared.config.queue_cap {
                shared
                    .counters
                    .rejected_full
                    .fetch_add(1, Ordering::Relaxed);
                tracer.count("svc.rejected_full", 1);
                return proto::rejected_response();
            }
            let flight = Arc::new(Flight::default());
            inflight.insert(flight_key.clone(), Arc::clone(&flight));
            queue.push_back(Job {
                req,
                key: flight_key,
                flight: Arc::clone(&flight),
            });
            (flight, false)
        }
    };
    if deduped {
        shared.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
        tracer.count("svc.dedup", 1);
    }
    let result = {
        // Open before the wake-up: the woken worker and its race threads
        // can take every core before this thread runs again, and that
        // time is waiting, not `svc.op.submit`'s own.
        let _span = tracer.span("svc.flight.wait");
        if !deduped {
            shared.queue_cv.notify_one();
        }
        flight.wait()
    };
    submit_response(key, deduped, result)
}

/// Dispatches one request.  The bool asks the connection handler to
/// start a drain.
///
/// Each endpoint runs under its own span so the tracer's duration
/// histograms break request latency down per operation (`svc.op.*`).
fn handle_request(shared: &Shared, req: Request) -> (Json, bool) {
    let _span = ph_obs::current().span(match &req {
        Request::Ping => "svc.op.ping",
        Request::Submit(_) => "svc.op.submit",
        Request::Stats => "svc.op.stats",
        Request::Shutdown => "svc.op.shutdown",
    });
    match req {
        Request::Ping => (proto::ok_response().with("pong", true), false),
        Request::Submit(s) => (handle_submit(shared, s), false),
        Request::Stats => {
            let c = &shared.counters;
            let queue_len = shared.queue.lock().unwrap().len();
            (
                proto::ok_response()
                    .with("submitted", c.submitted.load(Ordering::Relaxed))
                    .with("completed", c.completed.load(Ordering::Relaxed))
                    .with("failed", c.failed.load(Ordering::Relaxed))
                    .with("dedup_hits", c.dedup_hits.load(Ordering::Relaxed))
                    .with("rejected_full", c.rejected_full.load(Ordering::Relaxed))
                    .with("cache_hits", c.cache_hits.load(Ordering::Relaxed))
                    .with("cache_misses", c.cache_misses.load(Ordering::Relaxed))
                    .with("queue_len", queue_len as u64)
                    .with("workers", shared.config.workers as u64)
                    .with("queue_cap", shared.config.queue_cap as u64)
                    .with("draining", shared.draining.load(Ordering::SeqCst)),
                false,
            )
        }
        Request::Shutdown => (proto::ok_response().with("draining", true), true),
    }
}

/// The longest request line the daemon reads, newline excluded.  The
/// largest registry submission is about 2 KB, so this leaves ample room
/// while bounding what one connection can make the daemon buffer.
pub const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Serves one connection: line in, line out, each reply sent with one
/// write on a `TCP_NODELAY` socket.  Reads poll with a timeout so an idle
/// connection notices a drain instead of pinning the join; a line longer
/// than [`MAX_REQUEST_BYTES`] is answered with an error and closes the
/// connection.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let tracer = ph_obs::current();
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    // Each reply is rendered, newline included, into this one buffer.
    let mut reply = String::new();
    loop {
        // A timeout keeps the bytes read so far; the next read resumes
        // the same line.
        let room = MAX_REQUEST_BYTES + 1 - line.len() as u64;
        match (&mut reader).take(room).read_until(b'\n', &mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if shared.draining.load(Ordering::SeqCst) {
                    break;
                }
                continue;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        let too_long = line.len() as u64 > MAX_REQUEST_BYTES;
        let (resp, drain) = if too_long {
            tracer.count("svc.bad_request", 1);
            (proto::error_response("request line too long"), false)
        } else {
            let text = std::str::from_utf8(&line).map(str::trim);
            if text == Ok("") {
                line.clear();
                continue;
            }
            let parsed = {
                let _span = tracer.span("svc.request.decode");
                text.map_err(|_| CodecError("request is not UTF-8".into()))
                    .and_then(proto::parse_request)
            };
            match parsed {
                Ok(req) => handle_request(shared, req),
                Err(e) => {
                    tracer.count("svc.bad_request", 1);
                    (proto::error_response(&e.to_string()), false)
                }
            }
        };
        line.clear();
        let written = {
            let _span = tracer.span("svc.reply.write");
            reply.clear();
            resp.write_to(&mut reply);
            reply.push('\n');
            reader.get_mut().write_all(reply.as_bytes())
        };
        if written.is_err() || too_long {
            break;
        }
        if drain {
            shared.drain();
            break;
        }
    }
}

/// An in-process drain trigger (same effect as the `shutdown` op or
/// SIGTERM); cloneable and safe to fire from any thread.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests a graceful drain.
    pub fn shutdown(&self) {
        self.shared.drain();
    }
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener (so [`Server::local_addr`] is known before
    /// [`Server::run`] blocks) and allocates the shared state.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let mut wake_addr = listener.local_addr()?;
        if wake_addr.ip().is_unspecified() {
            wake_addr.set_ip(match wake_addr.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            wake_addr,
            counters: Counters::default(),
            config,
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A drain trigger for in-process embedding (tests, the `ledger` benchmark).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the daemon until drained: spawns the worker pool, accepts
    /// connections, and on a drain request stops accepting, finishes all
    /// queued and running jobs, joins every thread and returns.
    ///
    /// # Errors
    ///
    /// Propagates accept failures other than `EINTR`.
    pub fn run(self) -> std::io::Result<()> {
        let Server { listener, shared } = self;
        let workers: Vec<_> = (0..shared.config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            // A drain connects to the listener to wake this accept; that
            // connection (or any racing it) is dropped unserved.
            if shared.draining.load(Ordering::SeqCst) {
                break;
            }
            match accepted {
                Ok((stream, _)) => {
                    let shared = Arc::clone(&shared);
                    let h = std::thread::Builder::new()
                        .name("phd-conn".into())
                        .spawn(move || handle_connection(&shared, stream))
                        .expect("spawn connection handler");
                    handlers.push(h);
                    handlers.retain(|h| !h.is_finished());
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        ph_obs::current().count("svc.drain", 1);
        // Drain: workers exit once the queue is empty; connection
        // handlers notice the flag on their next read timeout.
        for w in workers {
            let _ = w.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}
