//! End-to-end daemon tests over real loopback TCP: cache replay through
//! the service, cache hits answered past busy workers and a full queue,
//! deterministic single-flight dedup (and its refusal to merge
//! alpha-variants), queue-full backpressure, the request- and reply-line
//! caps, round trips free of Nagle stalls, and graceful drain waking the
//! blocked accept.

use ph_core::{
    CacheHook, CacheQuery, OptConfig, SynthCache, SynthOutput, SynthParams, Synthesizer,
};
use ph_hw::DeviceProfile;
use ph_ir::ParserSpec;
use ph_obs::Json;
use ph_svc::client::MAX_REPLY_BYTES;
use ph_svc::{Client, ClientError, DiskCache, Server, ServerConfig, ShutdownHandle, SubmitOutcome};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    static N: AtomicU32 = AtomicU32::new(0);
    let d = std::env::temp_dir().join(format!(
        "ph-svc-e2e-{tag}-{}-{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A 4-bit one-state parser; `accept_on` varies the select constant so
/// tests can mint distinct content keys on demand.
fn tiny_spec(accept_on: u8) -> ParserSpec {
    ph_p4f::parse_parser(&format!(
        r#"
        header h_t {{ v : 4; }}
        parser {{
            state start {{
                extract(h_t);
                transition select(h_t.v) {{ {accept_on} : accept; default : reject; }}
            }}
        }}
        "#,
    ))
    .unwrap()
}

/// Binds a daemon on an ephemeral loopback port and runs it on its own
/// thread; returns the address, the drain trigger and the join handle.
fn start(
    config: ServerConfig,
) -> (
    String,
    ShutdownHandle,
    std::thread::JoinHandle<std::io::Result<()>>,
) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..config
    })
    .unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// Submits `spec` on a fresh connection from its own thread, so several
/// blocking submissions can be in flight at once.
fn submit_in_background(
    addr: &str,
    spec: &ParserSpec,
) -> std::thread::JoinHandle<Result<SubmitOutcome, ClientError>> {
    let addr = addr.to_string();
    let spec = spec.clone();
    std::thread::spawn(move || {
        Client::connect(&addr)?.submit_wait(
            &spec,
            &DeviceProfile::tofino(),
            OptConfig::all(),
            Some(Duration::from_secs(30)),
        )
    })
}

/// Polls the daemon's `stats` until `counter` reads `target`.
fn await_stat(client: &mut Client, counter: &str, target: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = client.stats().unwrap();
        if stats.get(counter).and_then(Json::as_i64) == Some(target) {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{counter} never reached {target}: {stats}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn second_submit_replays_from_cache_byte_identically() {
    let dir = tmp_dir("replay");
    let (addr, handle, join) = start(ServerConfig {
        workers: 2,
        queue_cap: 8,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    client.ping().unwrap();
    let spec = tiny_spec(7);
    let dev = DeviceProfile::tofino();
    let cold = client
        .submit_wait(&spec, &dev, OptConfig::all(), Some(Duration::from_secs(30)))
        .unwrap();
    assert!(!cold.cache_hit);
    let warm = client
        .submit_wait(&spec, &dev, OptConfig::all(), Some(Duration::from_secs(30)))
        .unwrap();
    assert!(warm.cache_hit, "second submission must replay");
    assert!(!warm.deduped, "sequential submissions never dedup");
    assert_eq!(warm.key, cold.key);
    assert_eq!(warm.program, cold.program);
    assert_eq!(
        warm.program_text, cold.program_text,
        "cache replay must be byte-identical"
    );
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.get("cache_misses").and_then(Json::as_i64), Some(1));
    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cache that always misses and whose store parks the worker until the
/// test releases it — turning "N identical submissions while one is in
/// flight" into a deterministic schedule instead of a timing race.  The
/// store runs on the worker after synthesis, before the job leaves the
/// in-flight table; lookups also run on the connection threads, so they
/// cannot serve as the gate.
struct GateCache {
    entered: Barrier,
    release: Barrier,
    lookups: AtomicUsize,
    stores: AtomicUsize,
}

impl SynthCache for GateCache {
    fn lookup_query(&self, _query: &CacheQuery<'_>) -> Option<SynthOutput> {
        self.lookups.fetch_add(1, Ordering::SeqCst);
        None
    }

    fn store_query(&self, _query: &CacheQuery<'_>, _out: &SynthOutput) {
        self.stores.fetch_add(1, Ordering::SeqCst);
        self.entered.wait();
        self.release.wait();
    }
}

#[test]
fn identical_concurrent_submissions_synthesize_exactly_once() {
    const DUPES: usize = 4;
    let gate = Arc::new(GateCache {
        entered: Barrier::new(2),
        release: Barrier::new(2),
        lookups: AtomicUsize::new(0),
        stores: AtomicUsize::new(0),
    });
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(gate.clone())),
        ..ServerConfig::default()
    });
    let spec = tiny_spec(7);
    let mut client = Client::connect(&addr).unwrap();

    // Primary: enqueued, then the worker parks inside the cache store.
    let primary = submit_in_background(&addr, &spec);
    gate.entered.wait(); // the worker is now provably mid-job

    // Identical submissions while it runs: all become followers.
    let followers: Vec<_> = (0..DUPES)
        .map(|_| submit_in_background(&addr, &spec))
        .collect();
    await_stat(&mut client, "dedup_hits", DUPES as i64);

    gate.release.wait(); // let the one synthesis proceed

    // Every follower receives the primary's result, byte for byte.
    let primary = primary.join().unwrap().unwrap();
    assert!(!primary.deduped);
    for follower in followers {
        let out = follower.join().unwrap().unwrap();
        assert!(out.deduped, "in-flight duplicate must dedup");
        assert_eq!(out.program_text, primary.program_text);
    }

    let stats = client.stats().unwrap();
    assert_eq!(
        stats.get("dedup_hits").and_then(Json::as_i64),
        Some(DUPES as i64)
    );
    assert_eq!(stats.get("completed").and_then(Json::as_i64), Some(1));
    // One inline lookup per submission, plus the one worker's.
    assert_eq!(
        gate.lookups.load(Ordering::SeqCst),
        1 + DUPES + 1,
        "one lookup per submission and one for the synthesis"
    );
    assert_eq!(
        gate.stores.load(Ordering::SeqCst),
        1,
        "one synthesis stored"
    );

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
}

/// A disk cache whose first store parks the worker, before anything
/// reaches the disk, until the test releases it; lookups and later stores
/// go straight to the disk.
struct FirstStoreGate {
    inner: DiskCache,
    entered: Barrier,
    release: Barrier,
    stores: AtomicUsize,
}

impl FirstStoreGate {
    fn new(dir: &std::path::Path) -> FirstStoreGate {
        FirstStoreGate {
            inner: DiskCache::new(dir),
            entered: Barrier::new(2),
            release: Barrier::new(2),
            stores: AtomicUsize::new(0),
        }
    }
}

impl SynthCache for FirstStoreGate {
    fn lookup_query(&self, query: &CacheQuery<'_>) -> Option<SynthOutput> {
        self.inner.lookup_query(query)
    }

    fn store_query(&self, query: &CacheQuery<'_>, out: &SynthOutput) {
        if self.stores.fetch_add(1, Ordering::SeqCst) == 0 {
            self.entered.wait();
            self.release.wait();
        }
        self.inner.store_query(query, out);
    }
}

/// Two headers of different widths, selected on in sequence.  `headers`
/// is the declaration block, so alpha-variants can permute or pad it and
/// thereby renumber the fields without changing the parser's meaning.
fn two_header_spec(headers: &str) -> ParserSpec {
    ph_p4f::parse_parser(&format!(
        r#"
        {headers}
        parser {{
            state start {{
                extract(a_t);
                transition select(a_t.x) {{ 1 : next; default : reject; }}
            }}
            state next {{
                extract(b_t);
                transition select(b_t.y) {{ 2 : accept; default : reject; }}
            }}
        }}
        "#,
    ))
    .unwrap()
}

#[test]
fn alpha_variants_in_flight_get_programs_in_their_own_field_numbering() {
    let dir = tmp_dir("alpha");
    let gate = Arc::new(FirstStoreGate::new(&dir));
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(gate.clone())),
        ..ServerConfig::default()
    });
    let primary = two_header_spec("header a_t { x : 4; } header b_t { y : 8; }");
    // Same parser, fields numbered the other way round.
    let swapped = two_header_spec("header b_t { y : 8; } header a_t { x : 4; }");
    // Same parser behind a dead header that shifts every field id by one.
    let padded =
        two_header_spec("header d_t { z : 3; } header a_t { x : 4; } header b_t { y : 8; }");
    let dev = DeviceProfile::tofino();
    let key = |s: &ParserSpec| DiskCache::key(s, &dev, OptConfig::all(), &SynthParams::default());
    assert_eq!(key(&swapped), key(&primary), "variants share a content key");
    assert_eq!(key(&padded), key(&primary), "variants share a content key");
    assert_ne!(swapped.fields[0], primary.fields[0]);

    let mut client = Client::connect(&addr).unwrap();

    // The primary parks in its cache store, before its entry reaches the
    // disk; both variants arrive while it is provably in flight, miss the
    // cache and neither follows it.
    let mut jobs = vec![(submit_in_background(&addr, &primary), &primary)];
    gate.entered.wait();
    jobs.push((submit_in_background(&addr, &swapped), &swapped));
    jobs.push((submit_in_background(&addr, &padded), &padded));
    await_stat(&mut client, "queue_len", 2);
    gate.release.wait();

    for (i, (job, spec)) in jobs.into_iter().enumerate() {
        let program = job.join().unwrap().unwrap().program;
        let violations = ph_hw::check_program(&program, &spec.fields);
        assert!(violations.is_empty(), "variant {i}: {violations:?}");
        if let Err(d) = ph_core::fuzz::check_e2e(spec, &program, 7, 400) {
            panic!("variant {i}: program diverges from its own spec: {d}");
        }
    }

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_rejects_explicitly_instead_of_hanging() {
    let gate = Arc::new(GateCache {
        entered: Barrier::new(2),
        release: Barrier::new(2),
        lookups: AtomicUsize::new(0),
        stores: AtomicUsize::new(0),
    });
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        cache: Some(CacheHook(gate.clone())),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();

    // Job 1 occupies the single worker (parked in the gated store);
    // job 2 (a *different* spec, so no dedup) fills the 1-slot queue.
    let first = submit_in_background(&addr, &tiny_spec(1));
    gate.entered.wait();
    let second = submit_in_background(&addr, &tiny_spec(2));
    await_stat(&mut client, "queue_len", 1);

    // Job 3 must be rejected immediately and explicitly.
    let err = client
        .submit_wait(
            &tiny_spec(3),
            &DeviceProfile::tofino(),
            OptConfig::all(),
            None,
        )
        .unwrap_err();
    match err {
        ClientError::Daemon { rejected, .. } => {
            assert!(rejected, "queue-full must set the rejected flag");
        }
        other => panic!("expected a daemon rejection, got {other}"),
    }
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("rejected_full").and_then(Json::as_i64), Some(1));

    // Unblock both queued jobs (the gate is hit once per synthesis).
    gate.release.wait();
    gate.entered.wait();
    gate.release.wait();
    first.join().unwrap().unwrap();
    second.join().unwrap().unwrap();

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
}

/// A cache hit is answered on its connection thread: it neither waits
/// behind a synthesis occupying the only worker nor is rejected by a full
/// queue.
#[test]
fn cache_hits_bypass_busy_workers_and_a_full_queue() {
    let dir = tmp_dir("bypass");
    let dev = DeviceProfile::tofino();
    let cached = tiny_spec(10);
    Synthesizer::new(dev.clone(), OptConfig::all())
        .with_params(SynthParams {
            cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
            ..SynthParams::default()
        })
        .synthesize(&cached)
        .unwrap();

    let gate = Arc::new(FirstStoreGate::new(&dir));
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 1,
        cache: Some(CacheHook(gate.clone())),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();

    // A cold spec parks the only worker in its store; a second fills the
    // queue; a third is rejected.
    let busy = submit_in_background(&addr, &tiny_spec(11));
    gate.entered.wait();
    let queued = submit_in_background(&addr, &tiny_spec(12));
    await_stat(&mut client, "queue_len", 1);
    match client.submit_wait(&tiny_spec(13), &dev, OptConfig::all(), None) {
        Err(ClientError::Daemon { rejected: true, .. }) => {}
        other => panic!("expected a queue-full rejection, got {other:?}"),
    }

    // The cached spec is answered while the worker is still parked.
    let (tx, rx) = mpsc::channel();
    let hit_addr = addr.clone();
    let hitter = std::thread::spawn(move || {
        let reply = Client::connect(&hit_addr).and_then(|mut c| {
            c.submit_wait(&cached, &DeviceProfile::tofino(), OptConfig::all(), None)
        });
        let _ = tx.send(reply);
    });
    let hit = rx
        .recv_timeout(Duration::from_secs(1))
        .expect("a cache hit must not wait on the parked worker")
        .expect("a cache hit must not be rejected by the full queue");
    hitter.join().unwrap();
    assert!(hit.cache_hit);
    assert!(!hit.deduped);
    let stats = client.stats().unwrap();
    assert_eq!(stats.get("cache_hits").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.get("queue_len").and_then(Json::as_i64), Some(1));
    assert_eq!(stats.get("rejected_full").and_then(Json::as_i64), Some(1));

    gate.release.wait();
    busy.join().unwrap().unwrap();
    queued.join().unwrap().unwrap();
    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A request line may not grow without bound: an unterminated line past
/// the cap gets an error reply (or a reset) and its connection closes,
/// while the daemon keeps serving everyone else.  A line that is not
/// UTF-8 is an ordinary bad request.
#[test]
fn overlong_request_line_is_refused_and_the_daemon_keeps_serving() {
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 4,
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"\xff\n").unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).unwrap();
    let resp = Json::parse(reply.trim()).unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp}");

    // 2 MiB with no newline.  The daemon closes mid-send, so the write
    // may fail; what matters is the reply and the close.
    let _ = stream.write_all(&vec![b' '; 2 << 20]);
    reply.clear();
    match BufReader::new(&stream).read_line(&mut reply) {
        Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
            panic!("the daemon neither replied nor closed the connection")
        }
        Ok(0) | Err(_) => {} // closed (a reset can discard the reply)
        Ok(_) => {
            let resp = Json::parse(reply.trim()).unwrap();
            assert_eq!(resp.get("ok"), Some(&Json::Bool(false)));
            assert_eq!(
                resp.get("error").and_then(Json::as_str),
                Some("request line too long")
            );
        }
    }
    Client::connect(&addr).unwrap().ping().unwrap();

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
}

/// Nor may a reply line: a peer that streams twice the cap with no
/// newline gets a protocol error, not an ever-growing buffer.
#[test]
fn overlong_reply_line_is_a_protocol_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut request = String::new();
        BufReader::new(&stream).read_line(&mut request).unwrap();
        let chunk = vec![b' '; 64 << 10];
        let mut sent = 0u64;
        // The client closes once it has read past the cap, so a write may
        // fail before all of it is sent.
        while sent < 2 * MAX_REPLY_BYTES && stream.write_all(&chunk).is_ok() {
            sent += chunk.len() as u64;
        }
    });
    let mut client = Client::connect(&addr).unwrap();
    match client.ping() {
        Err(ClientError::Protocol(m)) => assert!(m.contains("longer than"), "{m}"),
        other => panic!("expected a protocol error, got {other:?}"),
    }
    peer.join().unwrap();
}

#[test]
fn drain_finishes_queued_work_and_refuses_new_submissions() {
    let dir = tmp_dir("drain");
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
        ..ServerConfig::default()
    });
    let spec = tiny_spec(9);
    let dev = DeviceProfile::tofino();
    let mut client = Client::connect(&addr).unwrap();
    let out = client
        .submit_wait(&spec, &dev, OptConfig::all(), Some(Duration::from_secs(30)))
        .unwrap();
    assert!(out.program.entry_count() > 0);

    handle.shutdown();
    assert!(join.join().unwrap().is_ok(), "drain must exit cleanly");

    // The listener is gone: new connections fail outright.
    assert!(Client::connect(&addr).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sequential round trips on one connection must not stall on Nagle's
/// algorithm meeting a delayed ACK: with a line split over several
/// segments, each round trip waits ~40–80 ms, so 50 pings take seconds.
#[test]
fn sequential_round_trips_do_not_wait_on_delayed_acks() {
    let dir = tmp_dir("nagle");
    let (addr, handle, join) = start(ServerConfig {
        workers: 1,
        queue_cap: 8,
        cache: Some(CacheHook(Arc::new(DiskCache::new(&dir)))),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&addr).unwrap();
    let t0 = Instant::now();
    for _ in 0..50 {
        client.ping().unwrap();
    }
    let pings = t0.elapsed();
    assert!(pings < Duration::from_secs(1), "50 pings took {pings:?}");

    // Cache-hit replies carry a whole program and its stats: the large-
    // reply path must go out in one piece too.
    let spec = tiny_spec(5);
    let dev = DeviceProfile::tofino();
    let deadline = Some(Duration::from_secs(30));
    let cold = client
        .submit_wait(&spec, &dev, OptConfig::all(), deadline)
        .unwrap();
    assert!(!cold.cache_hit);
    let t0 = Instant::now();
    for _ in 0..20 {
        let warm = client
            .submit_wait(&spec, &dev, OptConfig::all(), deadline)
            .unwrap();
        assert!(warm.cache_hit);
    }
    let hits = t0.elapsed();
    assert!(hits < Duration::from_secs(1), "20 cache hits took {hits:?}");

    handle.shutdown();
    assert!(join.join().unwrap().is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs `server` on its own thread and returns a receiver for its result.
fn run_in_background(server: Server) -> mpsc::Receiver<std::io::Result<()>> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(server.run());
    });
    rx
}

/// Asserts the daemon's `run()` returns `Ok` within a second.
fn assert_drains_promptly(done: &mpsc::Receiver<std::io::Result<()>>) {
    match done.recv_timeout(Duration::from_secs(1)) {
        Ok(result) => assert!(result.is_ok(), "run() failed: {result:?}"),
        Err(_) => panic!("run() did not return within 1 s of the drain"),
    }
}

fn bind(addr: &str) -> Server {
    Server::bind(ServerConfig {
        addr: addr.into(),
        workers: 1,
        queue_cap: 4,
        cache: None,
    })
    .unwrap()
}

/// Covers both a loopback bind and an unspecified one, whose wake-up
/// connection must go to loopback instead.
#[test]
fn shutdown_wakes_an_accept_no_client_ever_reached() {
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = bind(addr);
        let handle = server.shutdown_handle();
        let done = run_in_background(server);
        // Give the accept loop time to block.  A drain that lands first is
        // the drain-before-run case and must pass as well.
        std::thread::sleep(Duration::from_millis(50));
        handle.shutdown();
        assert_drains_promptly(&done);
    }
}

#[test]
fn shutdown_before_run_returns_at_once() {
    let server = bind("127.0.0.1:0");
    server.shutdown_handle().shutdown();
    assert_drains_promptly(&run_in_background(server));
}
