//! The synthesis daemon: a bounded job queue feeding a worker pool,
//! single-flight deduplication, per-request deadlines and graceful drain.
//!
//! Architecture:
//!
//! * the **accept loop** (the thread inside [`Server::run`]) blocks in
//!   [`TcpListener::accept`] and hands each connection to its own handler
//!   thread;
//! * handler threads parse line-delimited requests ([`crate::proto`]) and
//!   operate on the shared state.  `submit` pushes a job id onto a
//!   **bounded queue** — when the queue is at capacity the request is
//!   rejected explicitly (`{"ok":false,"rejected":true}`), it never
//!   blocks the client;
//! * **worker threads** pop job ids, run [`ph_core::Synthesizer`] (with
//!   the disk cache installed when configured) and publish results;
//! * **single-flight**: identical submissions — same content key *and*
//!   field-for-field the same spec as a job that is still queued or
//!   running — don't enqueue a second synthesis.  The duplicate becomes a
//!   *follower* of the primary job and receives a copy of its result when
//!   it lands.  Alpha-variants share a content key but not a field
//!   numbering, so they never follow each other: each runs its own job,
//!   and the later ones replay the cache entry remapped to their own
//!   fields.  Combined with the cache this gives exactly-one-synthesis for
//!   any burst of identical requests;
//! * **graceful drain**: a `shutdown` request or a [`ShutdownHandle`]
//!   sets the draining flag and wakes the blocked accept by connecting to
//!   the listener's own address; the accept loop sees the flag, stops
//!   accepting, lets queued and running jobs finish, joins the workers
//!   and returns `Ok(())` — so `phd` exits 0.  SIGTERM reaches the same
//!   path through [`install_sigterm_drain`], which the binary calls.
//!
//! Socket discipline: every line — request or reply — is formatted into
//! one buffer and sent with one `write_all`, and both ends set
//! `TCP_NODELAY`, so a round trip never waits on Nagle's algorithm and a
//! delayed ACK.
//!
//! Lock discipline: `inflight` may be held while taking `jobs` or
//! `queue`; `jobs` and `queue` are never held while waiting for
//! `inflight`.  Deduplication correctness comes from the submit path
//! doing its in-flight check and enqueue under one `inflight` critical
//! section.
//!
//! Everything observable increments `svc.*` counters on the ambient
//! [`ph_obs`] tracer.

use crate::cache::DiskCache;
use crate::codec;
use crate::proto::{self, Request, SubmitReq};
use ph_bits::Sha256;
use ph_core::{SynthParams, Synthesizer};
use ph_ir::canon::spec_fingerprint_text;
use ph_obs::Json;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
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
    /// Worker threads executing synthesis jobs.
    pub workers: usize,
    /// Bounded queue capacity; submissions beyond it are rejected.
    pub queue_cap: usize,
    /// Result cache consulted and populated by every job.
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

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum JobStatus {
    Queued,
    Running,
    Done,
    Failed,
    Canceled,
}

impl JobStatus {
    fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Failed => "failed",
            JobStatus::Canceled => "canceled",
        }
    }

    fn terminal(self) -> bool {
        !matches!(self, JobStatus::Queued | JobStatus::Running)
    }
}

/// A finished job's payload, pre-rendered for the wire:
/// `Ok((program JSON, program text, stats JSON, cache_hit))` or the
/// synthesis error message.
type JobResult = Result<(Json, String, Json, bool), String>;

struct Job {
    /// In-flight identity (see [`flight_key`]).
    flight: String,
    status: JobStatus,
    submit: Option<Box<SubmitReq>>,
    result: Option<JobResult>,
    /// Duplicate submissions riding on this primary job.
    followers: Vec<u64>,
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    canceled: AtomicU64,
    dedup_hits: AtomicU64,
    rejected_full: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
}

struct Shared {
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    jobs: Mutex<HashMap<u64, Job>>,
    /// Signaled whenever any job reaches a terminal status.
    jobs_cv: Condvar,
    /// In-flight identity → primary job id, for jobs still queued or
    /// running.
    inflight: Mutex<HashMap<String, u64>>,
    next_job: AtomicU64,
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
        self.queue_cv.notify_all();
    }

    /// Publishes a terminal status (+ result) to a job and its followers.
    fn publish(&self, id: u64, status: JobStatus, result: Option<JobResult>) {
        let mut jobs = self.jobs.lock().unwrap();
        let followers = match jobs.get_mut(&id) {
            Some(job) => {
                job.status = status;
                job.result.clone_from(&result);
                std::mem::take(&mut job.followers)
            }
            None => return,
        };
        for f in followers {
            if let Some(fj) = jobs.get_mut(&f) {
                fj.status = status;
                fj.result.clone_from(&result);
            }
        }
        drop(jobs);
        self.jobs_cv.notify_all();
    }

    /// Blocks until `id` reaches a terminal status.
    fn wait_done(&self, id: u64) -> (JobStatus, Option<JobResult>) {
        let mut jobs = self.jobs.lock().unwrap();
        loop {
            match jobs.get(&id) {
                None => return (JobStatus::Failed, None),
                Some(j) if j.status.terminal() => return (j.status, j.result.clone()),
                Some(_) => {}
            }
            jobs = self.jobs_cv.wait(jobs).unwrap();
        }
    }

    fn job_flight(&self, id: u64) -> String {
        self.jobs
            .lock()
            .unwrap()
            .get(&id)
            .map(|j| j.flight.clone())
            .unwrap_or_default()
    }
}

/// Worker loop: pop a job, synthesize, publish.
fn worker_loop(shared: &Shared) {
    loop {
        let id = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                if let Some(id) = q.pop_front() {
                    break id;
                }
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap();
            }
        };
        let submit = {
            let mut jobs = shared.jobs.lock().unwrap();
            match jobs.get_mut(&id) {
                Some(j) if j.status == JobStatus::Queued => {
                    j.status = JobStatus::Running;
                    j.submit.take()
                }
                // Canceled (or vanished) while queued; its inflight entry
                // was already removed by the cancel path.
                _ => None,
            }
        };
        let Some(req) = submit else { continue };
        let _span = ph_obs::current().span("svc.job");
        let params = SynthParams {
            timeout: req
                .deadline_ms
                .map(Duration::from_millis)
                .or(SynthParams::default().timeout),
            cache: shared.config.cache.clone(),
            ..SynthParams::default()
        };
        let outcome = Synthesizer::new(req.device.clone(), req.opts)
            .with_params(params)
            .synthesize(&req.spec);
        let (status, result) = match outcome {
            Ok(out) => {
                let hit = out.stats.cache_hits > 0;
                let ctr = if hit {
                    &shared.counters.cache_hits
                } else {
                    &shared.counters.cache_misses
                };
                ctr.fetch_add(1, Ordering::Relaxed);
                shared.counters.completed.fetch_add(1, Ordering::Relaxed);
                (
                    JobStatus::Done,
                    Ok((
                        codec::program_to_json(&out.program),
                        out.program.to_string(),
                        out.stats.to_json(),
                        hit,
                    )),
                )
            }
            Err(e) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                (JobStatus::Failed, Err(e.to_string()))
            }
        };
        // Retire the in-flight entry before publishing: after this,
        // identical submissions enqueue fresh (and hit the disk cache)
        // instead of following a finished job.
        let flight = shared.job_flight(id);
        {
            let mut inflight = shared.inflight.lock().unwrap();
            if inflight.get(&flight).copied() == Some(id) {
                inflight.remove(&flight);
            }
        }
        shared.publish(id, status, Some(result));
    }
}

enum Placement {
    Rejected,
    Follower(u64),
    Enqueued,
}

/// Enqueues `id` as a primary job, or rejects on a full queue.  Runs
/// under the `inflight` lock.
fn try_enqueue(
    shared: &Shared,
    inflight: &mut HashMap<String, u64>,
    id: u64,
    flight: &str,
    req: Box<SubmitReq>,
) -> Placement {
    let mut queue = shared.queue.lock().unwrap();
    if queue.len() >= shared.config.queue_cap {
        return Placement::Rejected;
    }
    shared.jobs.lock().unwrap().insert(
        id,
        Job {
            flight: flight.to_string(),
            status: JobStatus::Queued,
            submit: Some(req),
            result: None,
            followers: Vec::new(),
        },
    );
    inflight.insert(flight.to_string(), id);
    queue.push_back(id);
    Placement::Enqueued
}

/// The single-flight identity of a submission: its content key plus the
/// exact, uncanonicalized spec.  A follower receives the primary's program
/// verbatim, and programs index fields by position, so only a spec that
/// is field-for-field identical may follow; an alpha-variant shares the
/// content key but not the numbering.
fn flight_key(key: &str, spec: &ph_ir::ParserSpec) -> String {
    Sha256::digest_hex(format!("{key}\n{}", spec_fingerprint_text(spec)).as_bytes())
}

/// Handles one submit request end to end; returns the response.
fn handle_submit(shared: &Shared, req: Box<SubmitReq>) -> Json {
    if shared.draining.load(Ordering::SeqCst) {
        return proto::error_response("draining");
    }
    // Content key: same canonical spec, device model and synthesis knobs
    // as the daemon's workers will use.
    let key = DiskCache::key(&req.spec, &req.device, req.opts, &SynthParams::default());
    let flight = flight_key(&key, &req.spec);
    shared.counters.submitted.fetch_add(1, Ordering::Relaxed);
    ph_obs::current().count("svc.submitted", 1);
    let wait = req.wait;
    let id = shared.next_job.fetch_add(1, Ordering::Relaxed);

    let placement = {
        // In-flight check and enqueue are one critical section so two
        // identical concurrent submissions can't both become primaries.
        let mut inflight = shared.inflight.lock().unwrap();
        match inflight.get(&flight).copied() {
            Some(primary) => {
                let mut jobs = shared.jobs.lock().unwrap();
                let attached = match jobs.get_mut(&primary) {
                    Some(p) if !p.status.terminal() => {
                        p.followers.push(id);
                        let status = p.status;
                        jobs.insert(
                            id,
                            Job {
                                flight: flight.clone(),
                                status,
                                submit: None,
                                result: None,
                                followers: Vec::new(),
                            },
                        );
                        true
                    }
                    _ => false,
                };
                drop(jobs);
                if attached {
                    shared.counters.dedup_hits.fetch_add(1, Ordering::Relaxed);
                    ph_obs::current().count("svc.dedup", 1);
                    Placement::Follower(primary)
                } else {
                    // Raced with completion: enqueue fresh.
                    inflight.remove(&flight);
                    try_enqueue(shared, &mut inflight, id, &flight, req)
                }
            }
            None => try_enqueue(shared, &mut inflight, id, &flight, req),
        }
    };

    match placement {
        Placement::Rejected => {
            shared
                .counters
                .rejected_full
                .fetch_add(1, Ordering::Relaxed);
            ph_obs::current().count("svc.rejected_full", 1);
            proto::rejected_response()
        }
        Placement::Follower(primary) => finish_submit(shared, id, wait, &key, Some(primary)),
        Placement::Enqueued => {
            shared.queue_cv.notify_one();
            finish_submit(shared, id, wait, &key, None)
        }
    }
}

fn finish_submit(shared: &Shared, id: u64, wait: bool, key: &str, primary: Option<u64>) -> Json {
    let mut resp = proto::ok_response()
        .with("job", id)
        .with("key", key)
        .with("deduped", primary.is_some());
    if !wait {
        return resp;
    }
    let (status, result) = shared.wait_done(id);
    resp.set("status", status.name());
    attach_result(&mut resp, status, result);
    resp
}

fn attach_result(resp: &mut Json, status: JobStatus, result: Option<JobResult>) {
    match result {
        Some(Ok((program, text, stats, cache_hit))) => {
            resp.set("cache_hit", cache_hit);
            resp.set("program", program);
            resp.set("program_text", text);
            resp.set("stats", stats);
        }
        Some(Err(e)) => {
            resp.set("ok", false);
            resp.set("error", e);
        }
        None => {
            if status != JobStatus::Done {
                resp.set("ok", false);
                resp.set("error", format!("job {}", status.name()));
            }
        }
    }
}

fn handle_cancel(shared: &Shared, job: u64) -> Json {
    // Decide under the jobs lock; release it before touching inflight
    // (lock discipline: never jobs → inflight).
    let decision = {
        let mut jobs = shared.jobs.lock().unwrap();
        let decision = match jobs.get_mut(&job) {
            None => None,
            Some(j) if j.status == JobStatus::Queued => {
                j.status = JobStatus::Canceled;
                j.submit = None;
                Some(Ok((std::mem::take(&mut j.followers), j.flight.clone())))
            }
            Some(j) => Some(Err(j.status)),
        };
        if let Some(Ok((followers, _))) = &decision {
            for f in followers {
                if let Some(fj) = jobs.get_mut(f) {
                    fj.status = JobStatus::Canceled;
                }
            }
        }
        decision
    };
    match decision {
        None => proto::error_response("unknown job"),
        Some(Err(status)) => {
            proto::error_response("job not cancelable").with("status", status.name())
        }
        Some(Ok((_, flight))) => {
            shared.counters.canceled.fetch_add(1, Ordering::Relaxed);
            let mut inflight = shared.inflight.lock().unwrap();
            if inflight.get(&flight).copied() == Some(job) {
                inflight.remove(&flight);
            }
            drop(inflight);
            shared.jobs_cv.notify_all();
            proto::ok_response().with("job", job).with("canceled", true)
        }
    }
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
        Request::Status { .. } => "svc.op.status",
        Request::Result { .. } => "svc.op.result",
        Request::Cancel { .. } => "svc.op.cancel",
        Request::Stats => "svc.op.stats",
        Request::Shutdown => "svc.op.shutdown",
    });
    match req {
        Request::Ping => (proto::ok_response().with("pong", true), false),
        Request::Submit(s) => (handle_submit(shared, s), false),
        Request::Status { job } => {
            let jobs = shared.jobs.lock().unwrap();
            match jobs.get(&job) {
                None => (proto::error_response("unknown job"), false),
                Some(j) => (
                    proto::ok_response()
                        .with("job", job)
                        .with("status", j.status.name()),
                    false,
                ),
            }
        }
        Request::Result { job } => {
            let (status, result) = {
                let jobs = shared.jobs.lock().unwrap();
                match jobs.get(&job) {
                    None => return (proto::error_response("unknown job"), false),
                    Some(j) => (j.status, j.result.clone()),
                }
            };
            if !status.terminal() {
                return (
                    proto::error_response("job not finished").with("status", status.name()),
                    false,
                );
            }
            let mut resp = proto::ok_response()
                .with("job", job)
                .with("status", status.name());
            attach_result(&mut resp, status, result);
            (resp, false)
        }
        Request::Cancel { job } => (handle_cancel(shared, job), false),
        Request::Stats => {
            let c = &shared.counters;
            let queue_len = shared.queue.lock().unwrap().len();
            (
                proto::ok_response()
                    .with("submitted", c.submitted.load(Ordering::Relaxed))
                    .with("completed", c.completed.load(Ordering::Relaxed))
                    .with("failed", c.failed.load(Ordering::Relaxed))
                    .with("canceled", c.canceled.load(Ordering::Relaxed))
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

/// Serves one connection: line in, line out, each reply sent with one
/// write on a `TCP_NODELAY` socket.  Reads poll with a timeout so an idle
/// connection notices a drain instead of pinning the join.
fn handle_connection(shared: &Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
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
        if line.trim().is_empty() {
            continue;
        }
        let (resp, drain) = match proto::parse_request(line.trim()) {
            Ok(req) => handle_request(shared, req),
            Err(e) => {
                ph_obs::current().count("svc.bad_request", 1);
                (proto::error_response(&e.to_string()), false)
            }
        };
        let mut reply = resp.to_string();
        reply.push('\n');
        if reader.get_mut().write_all(reply.as_bytes()).is_err() {
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
            jobs: Mutex::new(HashMap::new()),
            jobs_cv: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            next_job: AtomicU64::new(1),
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
        shared.queue_cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        for h in handlers {
            let _ = h.join();
        }
        Ok(())
    }
}
