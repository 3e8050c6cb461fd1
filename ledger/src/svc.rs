//! The `svc-mixed` workload: an in-process `ph_svc::Server` with two
//! workers and a fresh cache directory on a loopback address, driven by two
//! closed-loop client connections over the `quick` pairs.
//!
//! Every request is a fresh seeded variant.  The run has [`EPOCHS`] epochs,
//! each against a new daemon and an empty cache, so every cache key misses
//! once per epoch: the miss runs synthesis and stores the result, and every
//! later request for the key hits and must be canonicalized and remapped.
//! Replies to misses and to a seeded tenth of the hits are checked after
//! the timed phase.

use crate::check::check_output;
use crate::compile::QUICK;
use crate::gen::{resolve, Pair, Request, RequestStream};
use crate::heap;
use crate::layers::{self, Output, SvcCounters};
use crate::stats::{end_to_end, median, Class, Op};
use crate::{median_setup, RunCfg, RunOutput};
use ph_core::{CacheHook, OptConfig, SynthOutput, SynthParams};
use ph_ir::ParserSpec;
use ph_obs::Json;
use ph_svc::{codec, Client, ClientError, DiskCache, Server, ServerConfig, ShutdownHandle};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections, each with at most one request in flight.
pub const CONNECTIONS: usize = 2;
/// Daemon synthesis workers.
pub const WORKERS: usize = 2;
/// Epochs per run; each key misses once per epoch.
pub const EPOCHS: u64 = 3;
/// Within an epoch, every pair is first requested within this many
/// requests.
pub const RELEASE_WINDOW: usize = 120;
/// Requests per epoch of the smoke run used by the tests.
const SMOKE_REQUESTS: usize = 20;
/// Per-request synthesis deadline.
const DEADLINE: Duration = Duration::from_secs(60);

/// A running daemon with its connected clients.  Dropping it drains and
/// joins the daemon and removes the cache directory.
struct Service {
    clients: Vec<Client>,
    shutdown: ShutdownHandle,
    daemon: Option<JoinHandle<std::io::Result<()>>>,
    cache_dir: PathBuf,
}

impl Service {
    fn start(cache_dir: &Path) -> Service {
        let _ = std::fs::remove_dir_all(cache_dir);
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: WORKERS,
            queue_cap: 64,
            cache: Some(CacheHook(Arc::new(DiskCache::new(cache_dir)))),
        })
        .expect("bind the daemon on loopback");
        let addr = server.local_addr().expect("daemon address").to_string();
        let shutdown = server.shutdown_handle();
        let daemon = std::thread::spawn(move || server.run());
        let clients = (0..CONNECTIONS)
            .map(|_| {
                let mut c = Client::connect(&addr).expect("connect to the daemon");
                c.ping().expect("daemon answers ping");
                c
            })
            .collect();
        Service {
            clients,
            shutdown,
            daemon: Some(daemon),
            cache_dir: cache_dir.to_path_buf(),
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Closing the connections ends their handler threads; the drain
        // then lets the workers finish and the accept loop return.
        self.clients.clear();
        self.shutdown.shutdown();
        if let Some(daemon) = self.daemon.take() {
            match daemon.join() {
                Ok(Ok(())) => {}
                Ok(Err(e)) => eprintln!("ledger: daemon accept loop failed: {e}"),
                Err(_) => eprintln!("ledger: daemon thread panicked"),
            }
        }
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// The cache-key index of each pair: variants of a pair share its key, and
/// rewrite rows that canonicalize to the same parser share one too.
fn key_indices(pairs: &[Pair]) -> Vec<usize> {
    let mut keys: Vec<String> = Vec::new();
    pairs
        .iter()
        .map(|p| {
            let key = DiskCache::key(
                &p.base,
                &p.device.profile(),
                OptConfig::all(),
                &SynthParams::default(),
            );
            keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                keys.len() - 1
            })
        })
        .collect()
}

/// Hands one epoch's requests to the connections, in stream order, under
/// two rules:
///
/// * A request whose key is in flight on the other connection waits for it.
///   So the daemon's single-flight deduplication never engages: a follower
///   would receive the program in the primary request's field numbering,
///   and two variants of one parser number their fields differently.
/// * A key's first request, its miss, waits until no other miss is in
///   flight.  Misses then compile one at a time, like the `quick` compiles,
///   while the other connection keeps sending hits.
struct Dispatch {
    state: Mutex<DispatchState>,
    idle: Condvar,
    key_of: Vec<usize>,
}

struct DispatchState {
    stream: RequestStream,
    issued: usize,
    in_flight: Vec<usize>,
    requested: Vec<bool>,
    miss_in_flight: bool,
}

impl Dispatch {
    fn new(stream: RequestStream, key_of: Vec<usize>) -> Dispatch {
        let keys = key_of.iter().max().map_or(0, |k| k + 1);
        Dispatch {
            state: Mutex::new(DispatchState {
                stream,
                issued: 0,
                in_flight: Vec::new(),
                requested: vec![false; keys],
                miss_in_flight: false,
            }),
            idle: Condvar::new(),
            key_of,
        }
    }

    /// The next request and whether it is its key's first (a miss), or
    /// `None` once `stop(requests issued)` holds.
    fn take(&self, stop: &dyn Fn(usize) -> bool) -> Option<(Request, bool)> {
        let lock = "request dispatch lock";
        let mut st = self.state.lock().expect(lock);
        if stop(st.issued) {
            return None;
        }
        st.issued += 1;
        let req = st.stream.next().expect("the stream is endless");
        let key = self.key_of[req.pair];
        let miss = !st.requested[key];
        st.requested[key] = true;
        while st.in_flight.contains(&key) || (miss && st.miss_in_flight) {
            st = self.idle.wait(st).expect(lock);
        }
        st.in_flight.push(key);
        st.miss_in_flight |= miss;
        Some((req, miss))
    }

    /// Marks a request taken with [`Dispatch::take`] as answered.
    fn done(&self, req: &Request, miss: bool) {
        let key = self.key_of[req.pair];
        let mut st = self.state.lock().expect("request dispatch lock");
        if let Some(i) = st.in_flight.iter().position(|&k| k == key) {
            st.in_flight.swap_remove(i);
        }
        if miss {
            st.miss_in_flight = false;
        }
        drop(st);
        self.idle.notify_all();
    }
}

/// A reply kept for the output check.
struct Kept {
    pair: usize,
    spec: ParserSpec,
    program: ph_hw::TcamProgram,
    stats: Json,
}

/// One epoch against `service`; returns every request with what is kept
/// for the check, and the daemon's counters.
fn run_epoch(
    service: &mut Service,
    pairs: &[Pair],
    key_of: &[usize],
    cfg: &RunCfg,
    epoch: u64,
) -> (Vec<(Op, Option<Kept>)>, Json) {
    let window = if cfg.smoke {
        pairs.len()
    } else {
        RELEASE_WINDOW
    };
    let stream = RequestStream::new(pairs, cfg.seed, epoch, window);
    let last_release = stream.last_release();
    let dispatch = Dispatch::new(stream, key_of.to_vec());
    let budget = cfg.budget / EPOCHS as u32;
    let t_start = Instant::now();
    let stop = |issued: usize| {
        if cfg.smoke {
            issued >= SMOKE_REQUESTS
        } else {
            issued > last_release && t_start.elapsed() >= budget
        }
    };
    let done: Vec<Vec<(Op, Option<Kept>)>> = std::thread::scope(|s| {
        let handles: Vec<_> = service
            .clients
            .iter_mut()
            .map(|client| {
                let (dispatch, stop) = (&dispatch, &stop);
                s.spawn(move || {
                    let _guard = cfg.tracer.clone().map(ph_obs::set_thread_tracer);
                    let mut done = Vec::new();
                    while let Some((req, miss)) = dispatch.take(stop) {
                        let profile = pairs[req.pair].device.profile();
                        let mark = miss.then(heap::Mark::start);
                        let t0 = Instant::now();
                        let reply = {
                            let _s = ph_obs::current().span("ledger.svc.request");
                            client.submit_wait(
                                &req.spec,
                                &profile,
                                OptConfig::all(),
                                Some(DEADLINE),
                            )
                        };
                        let secs = t0.elapsed().as_secs_f64();
                        let heap_mb = mark.map_or(0.0, |m| m.peak_mb());
                        dispatch.done(&req, miss);
                        let key = key_of[req.pair];
                        done.push(record(req, key, secs, heap_mb, reply, cfg.tracer.is_some()));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let counters = service.clients[0].stats().expect("daemon stats");
    (done.into_iter().flatten().collect(), counters)
}

/// Runs `svc-mixed`.
pub fn run(cfg: &RunCfg) -> RunOutput {
    let cache_dir = cfg.scratch.join("svc-cache");
    let (setup_secs, (mut pairs, service)) = median_setup(|| {
        let pairs = resolve(&ph_benchmarks::registry(), QUICK);
        (pairs, Service::start(&cache_dir))
    });
    if cfg.smoke {
        pairs.truncate(2);
    }
    let key_of = key_indices(&pairs);

    let mut service = Some(service);
    let mut replies = Vec::new();
    let (mut dedup_hits, mut rejected) = (0u64, 0u64);
    for epoch in 0..EPOCHS {
        let mut svc = service.take().unwrap_or_else(|| Service::start(&cache_dir));
        let (epoch_replies, counters) = run_epoch(&mut svc, &pairs, &key_of, cfg, epoch);
        let counter = |k: &str| counters.get(k).and_then(Json::as_i64).unwrap_or(0) as u64;
        dedup_hits += counter("dedup_hits");
        rejected += counter("rejected_full");
        replies.extend(epoch_replies);
    }

    // Output check, after the timed phase.
    let _guard = cfg.tracer.clone().map(ph_obs::set_thread_tracer);
    let mut ops = Vec::new();
    let mut wrong = Vec::new();
    let mut outputs: Vec<Option<Output>> = (0..pairs.len()).map(|_| None).collect();
    let (mut packets, mut fuzz_secs) = (0u64, 0.0f64);
    for (op, kept) in replies {
        if let Some(k) = kept {
            let checked = check_output(&k.spec, &k.program, pairs[k.pair].device, cfg.seed);
            packets += checked.packets;
            fuzz_secs += checked.fuzz_secs;
            if let Some(why) = checked.wrong {
                wrong.push(format!("{} ({:?}): {why}", pairs[k.pair].label(), op.class));
            }
            if cfg.tracer.is_some() && outputs[k.pair].is_none() {
                if let Ok(stats) = codec::stats_from_json(&k.stats) {
                    outputs[k.pair] = Some(Output {
                        pair: k.pair,
                        spec: k.spec,
                        out: SynthOutput {
                            program: k.program,
                            stats,
                        },
                    });
                }
            }
        }
        ops.push(op);
    }

    let metrics = match &cfg.tracer {
        None => end_to_end(&pairs, &ops, setup_secs),
        Some(_) => {
            let hit_ms: Vec<f64> = ops
                .iter()
                .filter(|o| o.ok && o.class == Class::Hit)
                .map(|o| o.secs * 1e3)
                .collect();
            let ok = ops.iter().filter(|o| o.ok).count();
            layers::metrics(&layers::Inputs {
                pairs: &pairs,
                ops: &ops,
                outputs: outputs.into_iter().flatten().collect(),
                fuzz_packets: packets,
                fuzz_secs,
                svc: Some(SvcCounters {
                    hit_ms_p50: median(&hit_ms),
                    hit_frac: hit_ms.len() as f64 / ok.max(1) as f64,
                    dedup_hits,
                    rejected,
                }),
                trace_overhead_pct: 0.0,
                seed: cfg.seed,
                scratch: &cfg.scratch,
            })
        }
    };
    RunOutput {
        pairs,
        ops,
        wrong,
        metrics,
    }
}

/// Classifies one reply; keeps what the output check needs.
fn record(
    req: Request,
    key: usize,
    secs: f64,
    heap_mb: f64,
    reply: Result<ph_svc::SubmitOutcome, ClientError>,
    traced: bool,
) -> (Op, Option<Kept>) {
    let mut op = Op {
        pair: req.pair,
        key,
        secs,
        heap_mb,
        class: Class::Hit,
        ok: false,
        entries: 0,
        stages: 0,
        stats: None,
        traced,
    };
    match reply {
        Ok(out) => {
            op.class = if out.deduped {
                Class::Dedup
            } else if out.cache_hit {
                Class::Hit
            } else {
                Class::Miss
            };
            op.ok = true;
            op.entries = out.program.entry_count();
            op.stages = out.program.stages_used();
            if traced && op.class == Class::Miss {
                op.stats = codec::stats_from_json(&out.stats).ok();
            }
            let keep = op.class != Class::Hit || req.sampled;
            let kept = keep.then_some(Kept {
                pair: req.pair,
                spec: req.spec,
                program: out.program,
                stats: out.stats,
            });
            (op, kept)
        }
        Err(e) => {
            eprintln!("ledger: request for pair {} failed: {e}", req.pair);
            (op, None)
        }
    }
}
